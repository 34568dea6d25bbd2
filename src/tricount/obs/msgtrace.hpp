// Causal message tracing (docs/observability.md): every mpisim
// point-to-point and collective-constituent message leaves a per-rank
// record joining the sender's wire attempts to the receiver's delivery,
// so an analyzer can rebuild the happens-before graph of a run and
// derive the *measured* critical path, wait states, and comm/compute
// overlap — the cross-check for the α–β model's predictions.
//
// Like the flight recorder, a MsgTrace installs process-globally and is
// consulted through MsgTrace::current(); the mpisim capture sites are
// no-ops when none is installed, so a run without one records nothing
// and its metrics do not move (the perf_msgtraceoff_clean gate checks
// it). Unlike the flight rings, buffers stop recording when full instead
// of overwriting: causal analysis needs matched pairs, and losing the
// oldest sends would silently orphan their receives. Drops are tallied
// per buffer instead.
//
// trace() writes the records as a Chrome trace (obs/trace.hpp), the
// format of every measured recording: one `msg` span per record and one
// flow pair per message, which lint_trace checks and
// obs::analysis::MsgTraceReport::from_trace reads back.
//
// This header is mpisim-free on purpose: tricount_mpisim links
// tricount_obs, so the record carries plain ints, not mpisim types.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "tricount/obs/trace.hpp"

namespace tricount::obs {

/// The trace category of message spans and flows.
inline constexpr const char* kMsgCategory = "msg";

/// One causal event, recorded by the rank that produced it.
///
/// A logical message yields one kSend per wire attempt on the sender
/// (`gen` = attempt index, 0 = first transmission; `dropped` marks an
/// attempt consumed by an injected drop) and exactly one kRecv on the
/// receiver (duplicates are discarded by the reliable channel before
/// delivery, so retransmissions are never double-counted). Acks are
/// kAck records with zero bytes. Sender records and the matching
/// receive share `id`, a process-unique trace id stamped at post time.
struct MsgRecord {
  enum Kind : std::uint8_t { kSend = 0, kRecv = 1, kAck = 2 };
  Kind kind = kSend;
  /// The message rode a reserved collective tag (a collective
  /// constituent, not user point-to-point traffic).
  bool collective = false;
  /// This send attempt was consumed by an injected drop (never reached
  /// the destination mailbox).
  bool dropped = false;
  int peer = 0;  ///< dest for kSend/kAck, source for kRecv
  int tag = 0;
  int step = -1;  ///< counting superstep at record time (-1 = pre/unknown)
  int gen = 0;    ///< wire-attempt index (retransmit generation)
  std::uint64_t id = 0;   ///< trace id joining send attempts with the recv
  std::uint64_t seq = 0;  ///< reliable-channel sequence (0 on clean runs)
  std::uint64_t bytes = 0;
  /// When the operation was posted: the send call's entry (captured once,
  /// retransmits re-stamp it at retransmit time) or the receive call's
  /// entry — the "wanted to communicate" instant.
  double post_us = 0.0;
  /// When it happened: the attempt hit the destination mailbox (kSend),
  /// the message was delivered to the application (kRecv), or the ack
  /// was pushed (kAck). Non-decreasing per recording rank.
  double wire_us = 0.0;
};

const char* to_string(MsgRecord::Kind kind);

/// Per-rank bounded capture of MsgRecords with a shared wall-clock epoch.
///
/// Threading model: each rank thread appends only to its own buffer
/// (selected by util::current_rank(); non-rank threads share a trailing
/// buffer they are not expected to use). trace() is valid only after the
/// world's rank threads have joined, the same single-writer-then-read
/// contract as CommMatrix.
class MsgTrace {
 public:
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 16;

  explicit MsgTrace(int ranks, std::size_t capacity = kDefaultCapacity);
  ~MsgTrace();

  MsgTrace(const MsgTrace&) = delete;
  MsgTrace& operator=(const MsgTrace&) = delete;

  /// Makes this the process-global trace consulted by the mpisim capture
  /// sites; uninstall (or destruction) clears it if still installed.
  void install();
  void uninstall();
  static MsgTrace* current();

  /// Process-unique id for a new logical message, drawn from the calling
  /// rank's namespace (no cross-thread synchronization).
  std::uint64_t next_trace_id();

  /// Microseconds since this trace's epoch (shared across ranks).
  double now_us() const;

  /// Tags subsequent records from the calling rank with counting
  /// superstep `step` (core::PhaseTracker calls this as each counting
  /// superstep opens).
  void note_superstep(int step);

  /// Appends `r` to the calling rank's buffer, stamping its superstep.
  /// Once the buffer is full further records are counted as dropped.
  void record(MsgRecord r);

  /// Every buffer as one Chrome trace, laid out like
  /// FlightRecorder::trace(): rank r's buffer is tid r + 1 ("rank r") and
  /// the non-rank buffer tid 0 ("world"). Each record is one 'X' span in
  /// category kMsgCategory, named by its kind and running from post_us
  /// to wire_us, with peer, tag, step, gen, id, seq, bytes, collective
  /// and dropped as args, in recording order. Each message adds one flow
  /// whose id is the trace id: 's' at the start of the sender's first
  /// attempt that was not dropped, 'f' at the start of the receive.
  /// `otherData` holds ranks, capacity, each buffer's recorded/dropped
  /// counts (`rings`) and the build provenance; core::build_run_msgtrace
  /// adds the run header and the modeled step table.
  Trace trace() const;

 private:
  struct Buffer {
    std::vector<MsgRecord> records;
    std::uint64_t dropped = 0;
    std::uint64_t id_seq = 0;
    int step = -1;
  };

  Buffer& buffer_for_caller();
  std::size_t buffer_index_for_caller() const;

  int ranks_;
  std::size_t capacity_;
  double epoch_seconds_;
  std::vector<Buffer> buffers_;
};

}  // namespace tricount::obs
