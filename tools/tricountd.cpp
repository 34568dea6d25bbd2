// tricountd — the resident triangle-analytics daemon (docs/service.md).
//
// Loads a graph once, preprocesses once, keeps the 2D partition resident
// across the mpisim ranks, and serves newline-delimited tricount.service.v1
// JSON requests from one of three frontends:
//
//   --script FILE   run a scripted session (tests, CI, benches) and exit
//   --stdio         read requests from stdin until EOF
//   --socket PATH   listen on a Unix-domain socket (sequential clients)
//
// SIGINT/SIGTERM request a graceful shutdown: the frontends stop
// admitting, in-flight requests drain, the session trace and the final
// live view are flushed, and the process exits 0.
//
// Examples:
//   tricountd --graph g.mtx --ranks 4 --script session.jsonl
//   tricountd --graph g.mtx --socket /tmp/t.sock --telemetry tlm.json &
//   tricount_client --socket /tmp/tricountd.sock --script session.jsonl
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "tricount/graph/io.hpp"
#include "tricount/kernels/kernels.hpp"
#include "tricount/obs/flight.hpp"
#include "tricount/obs/graceful.hpp"
#include "tricount/service/service.hpp"
#include "tricount/util/argparse.hpp"
#include "tricount/util/log.hpp"

namespace {

using namespace tricount;

/// Routes response lines to the current client fd, or stdout when none.
/// Best-effort: a response completing after its client disconnected is
/// dropped (the client is gone; the session trace still records it).
class ResponseRouter {
 public:
  void set_fd(int fd) {
    std::lock_guard<std::mutex> lock(mutex_);
    fd_ = fd;
  }

  void deliver(const std::string& line) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (fd_ < 0) {
      std::fputs(line.c_str(), stdout);
      std::fputc('\n', stdout);
      std::fflush(stdout);
      return;
    }
    std::string out = line;
    out += '\n';
    std::size_t sent = 0;
    while (sent < out.size()) {
      const ssize_t n = ::write(fd_, out.data() + sent, out.size() - sent);
      if (n <= 0) break;  // client gone
      sent += static_cast<std::size_t>(n);
    }
  }

 private:
  std::mutex mutex_;
  int fd_ = -1;
};

/// Publishes the recorder's live view with the daemon's health added as
/// "service" counters on tid 0, the line `tricount_top` prints under the
/// per-rank table.
void publish_live(const obs::FlightRecorder& recorder,
                  const service::Service& svc, const std::string& path) {
  obs::Trace live = recorder.live_trace();
  const double now = recorder.now_us();
  const auto add = [&](const char* name, std::uint64_t value) {
    live.add_counter(0, name, "service", now, static_cast<double>(value));
  };
  const service::AdmissionQueue::Stats queue = svc.queue_stats();
  const service::ResultCache::Stats cache = svc.cache_stats();
  const service::SessionCounters counters = svc.counters();
  add("queue_depth", queue.depth);
  add("queue_capacity", queue.capacity);
  add("in_flight", svc.in_flight());
  add("requests", counters.requests);
  add("shed", counters.shed);
  add("cache_hits", cache.hits);
  add("cache_misses", cache.misses);
  add("graph_version", svc.graph_version());
  live.publish(path);
}

bool stopping(const service::Service& svc) {
  return obs::shutdown_requested() || svc.stop_requested();
}

void run_script(service::Service& svc, const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open script " + path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    svc.submit(line);
    if (stopping(svc)) break;
  }
}

void run_stdio(service::Service& svc) {
  std::string line;
  while (!stopping(svc) && std::getline(std::cin, line)) {
    if (line.empty()) continue;
    svc.submit(line);
  }
}

void serve_client(service::Service& svc, ResponseRouter& router, int client) {
  router.set_fd(client);
  std::string buffer;
  char chunk[4096];
  while (!stopping(svc)) {
    pollfd pfd{client, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 200);
    if (ready < 0) break;
    if (ready == 0) continue;
    const ssize_t n = ::read(client, chunk, sizeof chunk);
    if (n <= 0) break;  // EOF or error
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (std::size_t nl = buffer.find('\n', start); nl != std::string::npos;
         nl = buffer.find('\n', start)) {
      const std::string line = buffer.substr(start, nl - start);
      start = nl + 1;
      if (!line.empty()) svc.submit(line);
    }
    buffer.erase(0, start);
  }
  // Give in-flight responses a moment to land on this fd before it
  // closes; shutdown() below still drains everything into the artifact.
  // Queue depth alone is not enough: a batch the dispatcher already
  // popped is mid-execution and still owes this client its responses.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(500);
  while ((svc.queue_stats().depth > 0 || svc.in_flight() > 0) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  router.set_fd(-1);
  ::close(client);
}

int run_socket(service::Service& svc, ResponseRouter& router,
               const std::string& path) {
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listener < 0) {
    std::perror("tricountd: socket");
    return 1;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    std::fprintf(stderr, "tricountd: socket path too long\n");
    ::close(listener);
    return 1;
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ::unlink(path.c_str());
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listener, 4) != 0) {
    std::perror("tricountd: bind/listen");
    ::close(listener);
    return 1;
  }
  TRICOUNT_LOG_INFO("tricountd: listening on %s", path.c_str());

  while (!stopping(svc)) {
    pollfd pfd{listener, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 200);
    if (ready < 0) break;
    if (ready == 0) continue;
    const int client = ::accept(listener, nullptr, nullptr);
    if (client < 0) continue;
    serve_client(svc, router, client);
  }
  ::close(listener);
  ::unlink(path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("tricountd",
                       "Resident triangle-analytics service daemon.");
  args.add_option("graph", "", "graph file to preload (.txt / .mtx / .bin)");
  args.add_option("ranks", "4", "world size (perfect square)");
  args.add_option("kernel", "auto",
                  "base intersection kernel: auto | merge | galloping | "
                  "bitmap | hash");
  args.add_option("socket", "", "listen on this Unix-domain socket path");
  args.add_option("script", "", "run this request script, then exit");
  args.add_flag("stdio", false, "read requests from stdin until EOF");
  args.add_option("queue-depth", "64", "admission queue depth (backpressure)");
  args.add_option("cache-capacity", "128", "result cache entries (0 = off)");
  args.add_option("max-batch", "16",
                  "requests coalesced per sweep (1 = no batching)");
  args.add_option("max-request-bytes", "1048576",
                  "reject request lines longer than this");
  args.add_option("max-request-depth", "16",
                  "reject requests nested deeper than this");
  args.add_option("artifacts-dir", "service-artifacts",
                  "session trace directory ('' = don't write)");
  args.add_option("telemetry", "",
                  "publish the live view, a Chrome trace, to this path");
  args.add_option("telemetry-interval-ms", "200",
                  "telemetry publish interval in milliseconds");
  if (!args.parse(argc, argv)) return args.help_requested() ? 0 : 1;

  try {
    service::ServiceOptions options;
    options.ranks = static_cast<int>(args.get_int("ranks"));
    if (!kernels::parse_policy(args.get("kernel"), options.config.kernel)) {
      std::fprintf(stderr, "tricountd: bad --kernel\n");
      return 1;
    }
    options.queue_depth = static_cast<std::size_t>(
        std::max<long long>(args.get_int("queue-depth"), 1));
    options.cache_capacity = static_cast<std::size_t>(
        std::max<long long>(args.get_int("cache-capacity"), 0));
    options.max_batch = static_cast<std::size_t>(
        std::max<long long>(args.get_int("max-batch"), 1));
    options.limits.max_bytes = static_cast<std::size_t>(
        std::max<long long>(args.get_int("max-request-bytes"), 1024));
    options.limits.max_depth = static_cast<std::size_t>(
        std::max<long long>(args.get_int("max-request-depth"), 2));
    options.artifacts_dir = args.get("artifacts-dir");

    // Observability: flight recorder armed for crashes and installed
    // before the service so its world wires the rank gauges, INT/TERM in
    // flag mode so the frontend loops drain before exiting.
    obs::FlightRecorder recorder(options.ranks);
    recorder.set_auto_dump_dir(options.artifacts_dir.empty()
                                   ? "flight-dumps"
                                   : options.artifacts_dir);
    recorder.install();
    obs::FlightRecorder::install_signal_handlers();
    obs::install_shutdown_handlers(obs::ShutdownMode::kFlagOnly);

    ResponseRouter router;
    service::Service svc(options,
                         [&router](const std::string& line) {
                           router.deliver(line);
                         });

    const std::string graph_path = args.get("graph");
    if (!graph_path.empty()) {
      svc.load_graph(graph::read_graph(graph_path), graph_path);
      TRICOUNT_LOG_INFO("tricountd: graph %s resident (v%llu)",
                        graph_path.c_str(),
                        static_cast<unsigned long long>(svc.graph_version()));
    }

    // Optional publisher of the live view.
    std::thread publisher;
    std::mutex publisher_mutex;
    std::condition_variable publisher_cv;
    bool publisher_stop = false;
    const std::string telemetry_path = args.get("telemetry");
    if (!telemetry_path.empty()) {
      const auto interval = std::chrono::milliseconds(
          std::max<long long>(args.get_int("telemetry-interval-ms"), 10));
      publisher = std::thread([&] {
        util::set_thread_label("tlm");
        std::unique_lock<std::mutex> lock(publisher_mutex);
        while (!publisher_stop) {
          lock.unlock();
          try {
            publish_live(recorder, svc, telemetry_path);
          } catch (const std::exception&) {
          }
          lock.lock();
          publisher_cv.wait_for(lock, interval,
                                [&] { return publisher_stop; });
        }
      });
    }

    int exit_code = 0;
    const std::string script = args.get("script");
    const std::string socket_path = args.get("socket");
    if (!script.empty()) {
      run_script(svc, script);
    } else if (!socket_path.empty()) {
      exit_code = run_socket(svc, router, socket_path);
    } else {
      run_stdio(svc);  // default frontend, also behind --stdio
    }

    // Drain in-flight requests, flush the session trace, stop the
    // publisher, and leave a final live view behind.
    svc.shutdown();
    if (publisher.joinable()) {
      {
        std::lock_guard<std::mutex> lock(publisher_mutex);
        publisher_stop = true;
      }
      publisher_cv.notify_all();
      publisher.join();
    }
    if (!telemetry_path.empty()) {
      try {
        publish_live(recorder, svc, telemetry_path);
      } catch (const std::exception&) {
      }
    }
    if (obs::shutdown_requested()) {
      TRICOUNT_LOG_INFO("tricountd: graceful shutdown (signal %d)",
                        obs::shutdown_signal());
    }
    recorder.uninstall();
    return exit_code;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tricountd: error: %s\n", e.what());
    return 1;
  }
}
