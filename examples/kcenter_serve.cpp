// kcenter_serve: the batch solve service front-end (src/svc) as a
// binary.
//
// Reads JSON-lines SolveRequests, writes one JSON report line per
// request (admission order), enforcing per-tenant budgets and
// per-request deadlines. Two transports:
//
//   stdin/stdout (default):
//     ./kcenter_serve < requests.jsonl > reports.jsonl
//     ./kcenter_serve requests.jsonl          # same, from a file
//
//   Unix socket (one JSONL stream per connection; responses return on
//   the same connection; a dropped connection cancels its in-flight
//   requests):
//     ./kcenter_serve --socket=/tmp/kc.sock
//
// Flags:
//   --exec=seq|pool     execution substrate (default pool)
//   --threads=N         pool width (0 = hardware concurrency)
//   --in-flight=N       concurrently executing requests (default 4)
//   --queue=N           admission queue bound (default 256)
//   --tenant-budget=N   per-tenant distance-eval budget (0 = unlimited)
//   --request-budget=N  default per-request eval cap (0 = uncapped)
//   --deadline-ms=N     default per-request deadline (0 = none)
//   --retries=N         retry transient internal failures up to N
//                       times per request (default 0)
//   --watchdog-ms=N     cancel requests whose budget odometer stalls
//                       for N ms (default 0 = off)
//   --degrade-watermark=X  queue fill fraction (<= 1.0) above which
//                       requests run degraded (cheaper algorithm,
//                       shrunk budget); default off
//   --fault-plan=SPEC   arm the deterministic fault-injection plan
//                       (grammar in src/fault/fault.hpp; defaults to
//                       the KC_FAULT_PLAN environment variable)
//   --stable            omit machine-dependent report fields, for
//                       cross-host diffing (CI smoke leg)
//   --list-algos        print the algorithm registry and exit
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "cli/algos.hpp"
#include "cli/args.hpp"
#include "fault/fault.hpp"
#include "svc/service.hpp"

namespace {

struct ServeOptions {
  kc::svc::ServiceConfig config;
  std::string socket_path;  ///< empty = stdin/stdout mode
  std::string input_path;   ///< empty = stdin
};

/// Streams one JSONL source into the service and emits every report
/// (including admission rejections) through `emit`. Returns submitted
/// line count.
std::size_t pump(kc::svc::ServiceLoop& service, std::istream& in,
                 const kc::svc::EmitFn& emit,
                 std::vector<kc::CancellationToken>* tokens) {
  std::size_t lines = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++lines;
    kc::CancellationToken token = kc::CancellationToken::make();
    if (tokens != nullptr) tokens->push_back(token);
    if (auto rejection = service.submit(line, emit, /*blocking=*/true, token)) {
      emit(*rejection);
    }
  }
  return lines;
}

int run_stdio(const ServeOptions& options) {
  kc::svc::ServiceLoop service(options.config);
  std::mutex out_mutex;
  const kc::svc::EmitFn emit = [&out_mutex](const std::string& line) {
    const std::lock_guard<std::mutex> lock(out_mutex);
    std::fwrite(line.data(), 1, line.size(), stdout);
    std::fputc('\n', stdout);
  };

  std::thread consumer([&service] { service.run(); });
  std::size_t lines = 0;
  if (!options.input_path.empty()) {
    std::ifstream file(options.input_path);
    if (!file) {
      std::fprintf(stderr, "kcenter_serve: cannot open %s\n",
                   options.input_path.c_str());
      service.close();
      consumer.join();
      return 1;
    }
    lines = pump(service, file, emit, nullptr);
  } else {
    lines = pump(service, std::cin, emit, nullptr);
  }
  service.close();
  consumer.join();
  std::fflush(stdout);

  const auto stats = service.stats();
  std::fprintf(stderr,
               "kcenter_serve: %zu lines, %llu admitted, %llu rejected, "
               "%llu ok, %llu failed\n",
               lines, static_cast<unsigned long long>(stats.admitted),
               static_cast<unsigned long long>(stats.rejected),
               static_cast<unsigned long long>(stats.completed),
               static_cast<unsigned long long>(stats.failed));
  return 0;
}

/// Owns one connection's fd: the per-connection emit closures hold
/// shared references, so the fd is closed only after the reader thread
/// finished AND every in-flight request's report has been emitted —
/// never while a settling request could still write to it (a raw fd
/// closed at reap time could be reused by accept() and a late report
/// would land on another client's socket).
class SocketSink {
 public:
  explicit SocketSink(int fd) : fd_(fd) {}
  ~SocketSink() { ::close(fd_); }
  SocketSink(const SocketSink&) = delete;
  SocketSink& operator=(const SocketSink&) = delete;

  [[nodiscard]] int fd() const noexcept { return fd_; }

  /// Writes `line` + newline completely, looping over short writes and
  /// EINTR (the stop signals are installed without SA_RESTART, so a
  /// partial write mid-report is a real case — truncating would
  /// corrupt the connection's JSONL framing). Gives up on a dead peer.
  void write_line(const std::string& line) {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::string framed = line + "\n";
    std::size_t sent = 0;
    while (sent < framed.size()) {
      // Injection sites exercising the three ways a socket write goes
      // wrong. They model the syscall outcome *without* corrupting the
      // framing invariant this loop exists for: EINTR retries, a short
      // write continues from `sent`, a reset abandons the whole line
      // (the peer is gone; partial bytes on a dead socket are moot).
      if (kc::fault::armed()) {
        if (kc::fault::hit("svc.emit.eintr").action ==
            kc::fault::Action::Fail) {
          continue;  // simulated EINTR: loop and retry the write
        }
        if (kc::fault::hit("svc.emit.write").action ==
            kc::fault::Action::Fail) {
          return;  // simulated ECONNRESET: dead peer, abandon the line
        }
      }
      std::size_t want = framed.size() - sent;
      if (want > 1 && kc::fault::armed() &&
          kc::fault::hit("svc.emit.short").action == kc::fault::Action::Fail) {
        want = (want + 1) / 2;  // simulated short write
      }
      const ssize_t wrote = ::write(fd_, framed.data() + sent, want);
      if (wrote > 0) {
        sent += static_cast<std::size_t>(wrote);
        continue;
      }
      if (wrote < 0 && errno == EINTR) continue;
      return;  // peer gone; its requests get cancelled by the reader side
    }
  }

 private:
  const int fd_;
  std::mutex mutex_;
};

volatile std::sig_atomic_t g_stop = 0;
/// Listener fd, global so the signal handler can retire it: the
/// process signal may be delivered to *any* thread (a pool worker, the
/// consumer), so flagging alone would leave the main thread parked in
/// accept(). shutdown() is async-signal-safe and — unlike close(),
/// which on Linux does not wake a blocked accept — fails that accept
/// immediately.
int g_listener = -1;
void handle_stop(int) {
  g_stop = 1;
  if (g_listener >= 0) ::shutdown(g_listener, SHUT_RDWR);
}

int run_socket(const ServeOptions& options) {
  std::signal(SIGPIPE, SIG_IGN);
  // sigaction without SA_RESTART: the blocking accept() below must
  // return EINTR on SIGINT/SIGTERM (std::signal's BSD semantics would
  // transparently restart it and the stop flag would never be seen).
  struct sigaction stop_action{};
  stop_action.sa_handler = handle_stop;
  ::sigaction(SIGINT, &stop_action, nullptr);
  ::sigaction(SIGTERM, &stop_action, nullptr);

  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listener < 0) {
    std::perror("kcenter_serve: socket");
    return 1;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options.socket_path.size() >= sizeof(addr.sun_path)) {
    std::fprintf(stderr, "kcenter_serve: socket path too long\n");
    ::close(listener);
    return 1;
  }
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                options.socket_path.c_str());
  ::unlink(options.socket_path.c_str());
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listener, 16) != 0) {
    std::perror("kcenter_serve: bind/listen");
    ::close(listener);
    return 1;
  }
  g_listener = listener;
  std::fprintf(stderr, "kcenter_serve: listening on %s\n",
               options.socket_path.c_str());

  kc::svc::ServiceLoop service(options.config);
  std::thread consumer([&service] { service.run(); });

  // Connection bookkeeping, all on this thread. The fd is owned by a
  // refcounted SocketSink shared with every emit closure the
  // connection submitted, so reaping a finished connection — joined on
  // every accept-loop turn, so threads do not accumulate for the
  // lifetime of the server — never closes an fd a settling request
  // could still report to. At shutdown the remaining sinks are
  // shutdown() first so their readers unblock (a process signal may
  // land on any thread, and SIGINT does not interrupt their reads).
  struct Connection {
    std::thread thread;
    std::shared_ptr<SocketSink> sink;
    std::shared_ptr<std::atomic<bool>> done;
  };
  std::vector<Connection> connections;
  const auto reap = [&connections](bool all) {
    for (auto it = connections.begin(); it != connections.end();) {
      if (all || it->done->load(std::memory_order_acquire)) {
        if (all) ::shutdown(it->sink->fd(), SHUT_RDWR);
        it->thread.join();
        it = connections.erase(it);
      } else {
        ++it;
      }
    }
  };

  while (g_stop == 0) {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) {
      if (g_stop != 0 || errno == EBADF || errno == EINVAL) break;
      if (errno == EINTR) continue;
      // Transient failure (EMFILE under fd pressure, ECONNABORTED...):
      // report it, reclaim finished connections, keep serving.
      std::perror("kcenter_serve: accept");
      reap(/*all=*/false);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    if (kc::fault::armed() &&
        kc::fault::hit("serve.accept").action == kc::fault::Action::Fail) {
      // Simulated ECONNABORTED: the connection died between accept and
      // service. Drop it and keep serving — never the listener.
      ::close(fd);
      continue;
    }
    reap(/*all=*/false);
    auto sink = std::make_shared<SocketSink>(fd);
    auto done = std::make_shared<std::atomic<bool>>(false);
    Connection connection;
    connection.sink = sink;
    connection.done = done;
    connection.thread = std::thread([sink, &service, done] {
      // Per-connection emit: reports stream back on the same socket.
      const kc::svc::EmitFn emit = [sink](const std::string& line) {
        sink->write_line(line);
      };
      std::string buffer;
      std::vector<kc::CancellationToken> tokens;
      char chunk[4096];
      for (;;) {
        const ssize_t got = ::read(sink->fd(), chunk, sizeof chunk);
        if (got < 0 && errno == EINTR) continue;
        if (got <= 0) break;
        buffer.append(chunk, static_cast<std::size_t>(got));
        std::size_t start = 0;
        for (std::size_t nl = buffer.find('\n', start);
             nl != std::string::npos; nl = buffer.find('\n', start)) {
          const std::string_view line(buffer.data() + start, nl - start);
          if (!line.empty()) {
            kc::CancellationToken token = kc::CancellationToken::make();
            tokens.push_back(token);
            if (auto rejection =
                    service.submit(line, emit, /*blocking=*/false, token)) {
              emit(*rejection);
            }
          }
          start = nl + 1;
        }
        buffer.erase(0, start);
      }
      // Disconnect: cancel everything this connection submitted. The
      // sink stays alive until the last in-flight report is emitted.
      for (const auto& token : tokens) token.request_cancel();
      done->store(true, std::memory_order_release);
    });
    connections.push_back(std::move(connection));
  }
  g_listener = -1;
  ::close(listener);
  ::unlink(options.socket_path.c_str());
  reap(/*all=*/true);  // shutdown() unblocks parked readers, then join
  service.close();
  consumer.join();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  kc::cli::Args args(argc, argv);
  try {
    if (kc::cli::list_algos(args, stdout)) return 0;

    ServeOptions options;
    options.config.backend = kc::cli::exec_backend(
        args, kc::exec::BackendKind::ThreadPool);
    options.config.threads = kc::cli::exec_threads(args);
    options.config.max_in_flight = args.int_value("in-flight", 4);
    options.config.queue_capacity = args.size("queue", 256);
    options.config.tenant_budget = args.size("tenant-budget", 0);
    options.config.request_budget = args.size("request-budget", 0);
    options.config.default_deadline_ms = args.size("deadline-ms", 0);
    const int retries = args.int_value("retries", 0);
    if (retries < 0 || retries == std::numeric_limits<int>::max()) {
      throw std::invalid_argument("--retries is out of range: " +
                                  std::to_string(retries));
    }
    options.config.retry.max_attempts = 1 + retries;
    options.config.watchdog_ms = args.size("watchdog-ms", 0);
    options.config.degrade.high_watermark =
        args.real("degrade-watermark", options.config.degrade.high_watermark);
    // The flag wins; otherwise the environment arms the plan (parsed by
    // the ServiceLoop, so a malformed spec fails fast right here).
    if (const auto plan = args.str("fault-plan")) {
      options.config.fault_plan = *plan;
    } else if (const char* env = std::getenv("KC_FAULT_PLAN")) {
      options.config.fault_plan = env;
    }
    options.config.style.stable = args.flag("stable");
    options.socket_path = args.str("socket").value_or("");
    kc::cli::reject_unknown_flags(args);
    if (!args.positional().empty()) options.input_path = args.positional()[0];

    return options.socket_path.empty() ? run_stdio(options)
                                       : run_socket(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "kcenter_serve: %s\n", e.what());
    return kc::cli::exit_status(e);
  }
}
