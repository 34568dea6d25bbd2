// Collective operations over a Comm, implemented on top of the buffered
// point-to-point layer with tags drawn from the reserved collective tag
// space. Every rank must call every collective in the same order (as in
// MPI); the per-rank tag sequence keeps successive collectives from
// interfering.
//
// Algorithms follow the classic implementations:
//  * barrier    -- dissemination, ceil(log2 p) rounds
//  * bcast      -- binomial tree
//  * reduce     -- binomial tree (mirror of bcast)
//  * allreduce  -- reduce to root 0 + bcast
//  * gatherv    -- p-1 point-to-point sends to root
//  * allgatherv -- gatherv + bcast
//  * alltoallv  -- p point-to-point send/recv pairs, matching the paper's
//                  §5.4 statement that the all-to-all personalized exchange
//                  is "implemented using p point-to-point send and receive
//                  operations"
//  * scan_and_exscan -- Hillis–Steele dissemination prefix, log2 p rounds
//                  (the paper's d_max·log p counting-sort term)
#pragma once

#include <functional>
#include <stdexcept>
#include <vector>

#include "tricount/mpisim/comm.hpp"
#include "tricount/obs/flight.hpp"

namespace tricount::mpisim {

/// Blocks until every rank has entered the barrier.
void barrier(Comm& comm);

/// Broadcasts `data` from `root` to all ranks (binomial tree). On
/// non-root ranks `data` is replaced; its incoming size need not match.
template <typename T>
void bcast(Comm& comm, std::vector<T>& data, int root = 0) {
  obs::ScopedSpan obs_span("bcast", "collective");
  const int p = comm.size();
  const int tag = comm.next_collective_tag();
  if (p == 1) return;
  const int vrank = (comm.rank() - root + p) % p;
  int mask = 1;
  while (mask < p) {
    if (vrank & mask) {
      const int src = (vrank - mask + root) % p;
      data = comm.recv<T>(src, tag);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if ((vrank & (mask - 1)) == 0 && (vrank & mask) == 0 && vrank + mask < p) {
      const int dest = (vrank + mask + root) % p;
      comm.send<T>(dest, tag, data);
    }
    mask >>= 1;
  }
}

/// Element-wise reduction of equal-length vectors onto `root`
/// (binomial tree). All ranks must pass the same length.
template <typename T, typename Op>
void reduce(Comm& comm, std::vector<T>& data, Op op, int root = 0) {
  obs::ScopedSpan obs_span("reduce", "collective");
  const int p = comm.size();
  const int tag = comm.next_collective_tag();
  if (p == 1) return;
  const int vrank = (comm.rank() - root + p) % p;
  int mask = 1;
  while (mask < p) {
    if ((vrank & mask) == 0) {
      const int vpartner = vrank | mask;
      if (vpartner < p) {
        const int partner = (vpartner + root) % p;
        const std::vector<T> part = comm.recv<T>(partner, tag);
        if (part.size() != data.size()) {
          throw std::runtime_error("mpisim: reduce length mismatch");
        }
        for (std::size_t i = 0; i < data.size(); ++i) {
          data[i] = op(data[i], part[i]);
        }
      }
    } else {
      const int partner = (vrank - mask + root) % p;
      comm.send<T>(partner, tag, data);
      break;
    }
    mask <<= 1;
  }
}

/// Element-wise allreduce: reduce to rank 0, then broadcast.
template <typename T, typename Op>
void allreduce(Comm& comm, std::vector<T>& data, Op op) {
  reduce(comm, data, op, /*root=*/0);
  bcast(comm, data, /*root=*/0);
}

template <typename T, typename Op>
T allreduce_value(Comm& comm, T value, Op op) {
  std::vector<T> data{value};
  allreduce(comm, data, op);
  return data.at(0);
}

template <typename T>
T allreduce_sum(Comm& comm, T value) {
  return allreduce_value(comm, value, std::plus<T>());
}

template <typename T>
T allreduce_max(Comm& comm, T value) {
  return allreduce_value(comm, value,
                         [](T a, T b) { return a > b ? a : b; });
}

/// Gathers each rank's (possibly differently sized) vector onto `root`.
/// Returns one vector per rank, indexed by rank; empty on non-roots.
template <typename T>
std::vector<std::vector<T>> gatherv(Comm& comm, const std::vector<T>& local,
                                    int root = 0) {
  obs::ScopedSpan obs_span("gatherv", "collective");
  const int p = comm.size();
  const int tag = comm.next_collective_tag();
  std::vector<std::vector<T>> out;
  if (comm.rank() == root) {
    out.resize(static_cast<std::size_t>(p));
    out[static_cast<std::size_t>(root)] = local;
    for (int r = 0; r < p; ++r) {
      if (r == root) continue;
      out[static_cast<std::size_t>(r)] = comm.recv<T>(r, tag);
    }
  } else {
    comm.send<T>(root, tag, local);
  }
  return out;
}

/// All ranks receive every rank's vector (gather to 0 + broadcast).
template <typename T>
std::vector<std::vector<T>> allgatherv(Comm& comm,
                                       const std::vector<T>& local) {
  obs::ScopedSpan obs_span("allgatherv", "collective");
  const int p = comm.size();
  auto per_rank = gatherv(comm, local, /*root=*/0);
  // Broadcast as (counts, flat payload).
  std::vector<std::uint64_t> counts(static_cast<std::size_t>(p));
  std::vector<T> flat;
  if (comm.rank() == 0) {
    for (int r = 0; r < p; ++r) {
      const auto& v = per_rank[static_cast<std::size_t>(r)];
      counts[static_cast<std::size_t>(r)] = v.size();
      flat.insert(flat.end(), v.begin(), v.end());
    }
  }
  bcast(comm, counts, 0);
  bcast(comm, flat, 0);
  std::vector<std::vector<T>> out(static_cast<std::size_t>(p));
  std::size_t at = 0;
  for (int r = 0; r < p; ++r) {
    const std::size_t n = counts[static_cast<std::size_t>(r)];
    out[static_cast<std::size_t>(r)].assign(flat.begin() + static_cast<std::ptrdiff_t>(at),
                                            flat.begin() + static_cast<std::ptrdiff_t>(at + n));
    at += n;
  }
  return out;
}

/// Personalized all-to-all exchange: outgoing[r] is delivered to rank r;
/// the result's element [r] is what rank r sent to this rank. Implemented
/// as p point-to-point operations in a round-robin schedule.
template <typename T>
std::vector<std::vector<T>> alltoallv(
    Comm& comm, const std::vector<std::vector<T>>& outgoing) {
  obs::ScopedSpan obs_span("alltoallv", "collective");
  const int p = comm.size();
  if (outgoing.size() != static_cast<std::size_t>(p)) {
    throw std::invalid_argument("mpisim: alltoallv needs one bucket per rank");
  }
  const int tag = comm.next_collective_tag();
  std::vector<std::vector<T>> incoming(static_cast<std::size_t>(p));
  incoming[static_cast<std::size_t>(comm.rank())] =
      outgoing[static_cast<std::size_t>(comm.rank())];
  for (int r = 1; r < p; ++r) {
    const int dest = (comm.rank() + r) % p;
    comm.send<T>(dest, tag, outgoing[static_cast<std::size_t>(dest)]);
  }
  for (int r = 1; r < p; ++r) {
    const int src = (comm.rank() - r + p) % p;
    incoming[static_cast<std::size_t>(src)] = comm.recv<T>(src, tag);
  }
  return incoming;
}

/// Binomial broadcast within an arbitrary ordered subgroup of ranks
/// (e.g. one grid row or column). Every member must call with the same
/// `members` list and `root_index` (index into `members`); non-members
/// must not call. log2(|group|) rounds.
template <typename T>
void bcast_group(Comm& comm, std::vector<T>& data,
                 std::span<const int> members, int root_index = 0) {
  obs::ScopedSpan obs_span("bcast_group", "collective");
  const int g = static_cast<int>(members.size());
  const int tag = comm.next_collective_tag();
  if (g <= 1) return;
  int my_index = -1;
  for (int i = 0; i < g; ++i) {
    if (members[static_cast<std::size_t>(i)] == comm.rank()) my_index = i;
  }
  if (my_index < 0) {
    throw std::invalid_argument("mpisim: bcast_group caller not in group");
  }
  const int vrank = (my_index - root_index + g) % g;
  int mask = 1;
  while (mask < g) {
    if (vrank & mask) {
      const int src = members[static_cast<std::size_t>(
          ((vrank - mask) + root_index) % g)];
      data = comm.recv<T>(src, tag);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if ((vrank & (mask - 1)) == 0 && (vrank & mask) == 0 && vrank + mask < g) {
      const int dest = members[static_cast<std::size_t>(
          ((vrank + mask) + root_index) % g)];
      comm.send<T>(dest, tag, data);
    }
    mask >>= 1;
  }
}

/// Element-wise inclusive and exclusive prefix over ranks
/// (Hillis–Steele dissemination; log2 p rounds). `data` becomes the
/// inclusive prefix; the returned vector is the exclusive prefix
/// (identity-filled on rank 0).
template <typename T, typename Op>
std::vector<T> scan_and_exscan(Comm& comm, std::vector<T>& data, Op op,
                               T identity) {
  obs::ScopedSpan obs_span("scan", "collective");
  const int p = comm.size();
  const int rank = comm.rank();
  std::vector<T> exclusive(data.size(), identity);
  bool has_exclusive = false;
  for (int k = 1; k < p; k <<= 1) {
    const int tag = comm.next_collective_tag();
    if (rank + k < p) comm.send<T>(rank + k, tag, data);
    if (rank - k >= 0) {
      const std::vector<T> part = comm.recv<T>(rank - k, tag);
      if (part.size() != data.size()) {
        throw std::runtime_error("mpisim: scan length mismatch");
      }
      for (std::size_t i = 0; i < data.size(); ++i) {
        exclusive[i] = has_exclusive ? op(part[i], exclusive[i]) : part[i];
        data[i] = op(part[i], data[i]);
      }
      has_exclusive = true;
    }
  }
  return exclusive;
}

}  // namespace tricount::mpisim
