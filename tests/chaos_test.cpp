// Chaos: the deterministic fault-injection subsystem (src/fault) and
// the service plane's resilience to it — retry with backoff, the
// graceful-degradation ladder, the no-progress watchdog, simulated
// machine failures in reducer rounds, and the ≥1k-request soak whose
// report stream must be byte-identical across same-seed runs.
//
// Every fixture here is named Chaos* so the CI chaos leg can select
// exactly this file with `ctest -R Chaos` under a committed
// KC_FAULT_PLAN.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/solver.hpp"
#include "data/generators.hpp"
#include "fault/fault.hpp"
#include "rng/rng.hpp"
#include "svc/json.hpp"
#include "svc/service.hpp"

namespace kc {
namespace {

using svc::Json;

// ------------------------------------------------------- FaultPlan

TEST(ChaosFaultPlan, ParsesTriggersSeedAndRoundTrips) {
  const fault::FaultPlan plan = fault::FaultPlan::parse(
      " seed=42 ; exec.task.run : p=0.25 ;"
      " svc.request.run: nth=3 , times=1 ; sim.machine:every=7,stall_ms=9 ");
  EXPECT_EQ(plan.seed, 42u);
  ASSERT_EQ(plan.sites.size(), 3u);
  EXPECT_EQ(plan.sites[0].site, "exec.task.run");
  EXPECT_DOUBLE_EQ(plan.sites[0].p, 0.25);
  EXPECT_EQ(plan.sites[1].site, "svc.request.run");
  EXPECT_EQ(plan.sites[1].nth, 3u);
  EXPECT_EQ(plan.sites[1].times, 1u);
  EXPECT_EQ(plan.sites[2].every, 7u);
  EXPECT_EQ(plan.sites[2].stall_ms, 9u);

  // The canonical spelling is a fixed point of parse ∘ to_string.
  const std::string canonical = plan.to_string();
  EXPECT_EQ(fault::FaultPlan::parse(canonical).to_string(), canonical);

  EXPECT_TRUE(fault::FaultPlan::parse("").empty());
  EXPECT_TRUE(fault::FaultPlan::parse("  ;  ; ").empty());
}

TEST(ChaosFaultPlan, RejectsMalformedSpecs) {
  for (const char* bad :
       {"seed=x", "loneword", "site:", "site:times=2", "a:nth=0", "a:every=0",
        "a:p=1.5", "a:p=-0.1", "a:bogus=1", "a:nth", ":nth=1",
        "a:nth=1;a:every=2"}) {
    EXPECT_THROW((void)fault::FaultPlan::parse(bad), std::invalid_argument)
        << bad;
  }
}

TEST(ChaosFaultPlan, ReadsThePlanFromTheEnvironment) {
  ASSERT_EQ(::setenv("KC_FAULT_PLAN", "seed=5;x:nth=1", 1), 0);
  const fault::FaultPlan plan = fault::plan_from_env();
  EXPECT_EQ(plan.seed, 5u);
  ASSERT_EQ(plan.sites.size(), 1u);
  EXPECT_EQ(plan.sites[0].site, "x");

  ASSERT_EQ(::setenv("KC_FAULT_PLAN", "totally not a plan", 1), 0);
  EXPECT_THROW((void)fault::plan_from_env(), std::invalid_argument);

  ASSERT_EQ(::unsetenv("KC_FAULT_PLAN"), 0);
  EXPECT_TRUE(fault::plan_from_env().empty());
}

// ----------------------------------------------------- fault sites

TEST(ChaosFaultSites, CounterTriggersFireNthEveryAndRespectTimes) {
  const fault::ScopedPlan armed("seed=9;a:nth=3;b:every=4,times=2");
  for (int i = 1; i <= 6; ++i) {
    EXPECT_EQ(fault::hit("a").action,
              i == 3 ? fault::Action::Fail : fault::Action::None)
        << i;
  }
  for (int i = 1; i <= 12; ++i) {
    // every=4 wants hits 4, 8 and 12; times=2 caps the third.
    EXPECT_EQ(fault::hit("b").action,
              (i == 4 || i == 8) ? fault::Action::Fail : fault::Action::None)
        << i;
  }
  EXPECT_EQ(fault::stats("a").hits, 6u);
  EXPECT_EQ(fault::stats("a").fires, 1u);
  EXPECT_EQ(fault::stats("b").hits, 12u);
  EXPECT_EQ(fault::stats("b").fires, 2u);
  // A site the plan does not name is free.
  EXPECT_EQ(fault::hit("unlisted").action, fault::Action::None);
  EXPECT_EQ(fault::stats("unlisted").hits, 0u);
}

TEST(ChaosFaultSites, StallSitesStallInsteadOfFailing) {
  const fault::ScopedPlan armed("seed=9;c:p=1,stall_ms=7");
  const fault::Outcome outcome = fault::hit("c");
  EXPECT_EQ(outcome.action, fault::Action::Stall);
  EXPECT_EQ(outcome.stall_ms, 7u);
  // fires() is the lose-or-keep helper: a stall is not a loss.
  EXPECT_FALSE(fault::fires("c", 11));
  // point() sleeps through a stall rather than throwing.
  EXPECT_NO_THROW(fault::point("c"));
}

TEST(ChaosFaultSites, KeyedDecisionsDependOnlyOnTheKey) {
  constexpr int kKeys = 1000;
  std::vector<bool> forward(kKeys);
  {
    const fault::ScopedPlan armed("seed=77;k:p=0.5");
    for (int key = 0; key < kKeys; ++key) {
      forward[key] = fault::fires("k", static_cast<std::uint64_t>(key));
    }
  }
  // Re-arm (counters reset) and replay the keys in reverse: keyed
  // decisions must not see the different hit order.
  const fault::ScopedPlan armed("seed=77;k:p=0.5");
  int fires = 0;
  for (int key = kKeys - 1; key >= 0; --key) {
    const bool fired = fault::fires("k", static_cast<std::uint64_t>(key));
    EXPECT_EQ(fired, forward[key]) << key;
    fires += fired ? 1 : 0;
  }
  // The seeded hash should land near p over many keys.
  EXPECT_GT(fires, 350);
  EXPECT_LT(fires, 650);
}

TEST(ChaosFaultSites, DisarmedSitesDoNothing) {
  fault::disarm();
  EXPECT_FALSE(fault::armed());
  EXPECT_EQ(fault::hit("anything").action, fault::Action::None);
  EXPECT_FALSE(fault::fires("anything", 3));
  EXPECT_NO_THROW(fault::point("anything"));
}

// ----------------------------------------------------- service plane

[[nodiscard]] std::string request_line(int id, const char* tenant,
                                       const char* algorithm, int k,
                                       int points, std::uint64_t seed,
                                       const std::string& extra = "") {
  std::string line = "{\"id\": " + std::to_string(id) + ", \"tenant\": \"" +
                     tenant + "\", \"algorithm\": \"" + algorithm +
                     "\", \"k\": " + std::to_string(k) +
                     ", \"machines\": 4, \"seed\": " + std::to_string(seed) +
                     extra + ", \"points\": [";
  Rng rng(seed);
  for (int p = 0; p < points; ++p) {
    line += p == 0 ? "[" : ", [";
    line += svc::json_number(rng.uniform(0.0, 100.0)) + ", " +
            svc::json_number(rng.uniform(0.0, 100.0));
    line += "]";
  }
  line += "]}";
  return line;
}

[[nodiscard]] std::string status_of(const std::string& report) {
  return Json::parse(report).find("status")->string;
}

struct SoakResult {
  std::vector<std::string> reports;
  svc::ServiceLoop::Stats stats;
  std::size_t deadline_entries = 0;
  std::size_t watchdog_entries = 0;
};

/// Submits every line (rejections settle inline, in submission order),
/// closes, then drains run() on this thread. With a sequential backend
/// the emission order — all rejections, then reports in admission
/// order — is fully deterministic, which the byte-identity soak needs.
[[nodiscard]] SoakResult soak(const std::vector<std::string>& lines,
                              const svc::ServiceConfig& config) {
  svc::ServiceLoop service(config);
  SoakResult result;
  std::mutex mutex;
  const svc::EmitFn emit = [&](const std::string& line) {
    const std::lock_guard<std::mutex> lock(mutex);
    result.reports.push_back(line);
  };
  for (const auto& line : lines) {
    if (auto rejection = service.submit(line, emit)) emit(*rejection);
  }
  service.close();
  service.run();
  result.stats = service.stats();
  result.deadline_entries = service.deadline_entries();
  result.watchdog_entries = service.watchdog_entries();
  return result;
}

TEST(ChaosRetry, TransientFaultIsRetriedAndAttemptsReported) {
  svc::ServiceConfig config;
  config.backend = exec::BackendKind::Sequential;
  config.style.stable = true;
  config.retry.max_attempts = 3;
  config.fault_plan = "seed=1;svc.request.run:nth=1,times=1";
  const SoakResult result = soak({request_line(1, "t", "gon", 2, 40, 5)},
                                 config);
  ASSERT_EQ(result.reports.size(), 1u);
  EXPECT_EQ(status_of(result.reports[0]), "ok") << result.reports[0];
  EXPECT_EQ(Json::parse(result.reports[0]).find("attempts")->number, 2.0);
  EXPECT_EQ(result.stats.retries, 1u);
  EXPECT_EQ(result.stats.completed, 1u);
}

TEST(ChaosRetry, ExhaustedAttemptsSettleInternalError) {
  svc::ServiceConfig config;
  config.backend = exec::BackendKind::Sequential;
  config.style.stable = true;
  config.retry.max_attempts = 2;
  config.fault_plan = "seed=1;svc.request.run:every=1";
  const SoakResult result = soak({request_line(1, "t", "gon", 2, 40, 5)},
                                 config);
  ASSERT_EQ(result.reports.size(), 1u);
  const Json report = Json::parse(result.reports[0]);
  EXPECT_EQ(report.find("status")->string, "internal-error");
  EXPECT_NE(report.find("error")->string.find("svc.request.run"),
            std::string::npos);
  EXPECT_EQ(report.find("attempts")->number, 2.0);
  EXPECT_EQ(result.stats.retries, 1u);
  EXPECT_EQ(result.stats.failed, 1u);
}

TEST(ChaosRetry, TenantRetryBudgetFailsFastWhenExhausted) {
  svc::ServiceConfig config;
  config.backend = exec::BackendKind::Sequential;
  config.style.stable = true;
  config.retry.max_attempts = 5;
  config.retry.tenant_retry_budget = 1;  // one retry for the whole tenant
  config.fault_plan = "seed=1;svc.request.run:every=1";
  const SoakResult result = soak(
      {
          request_line(1, "t", "gon", 2, 40, 5),
          request_line(2, "t", "gon", 2, 40, 6),
      },
      config);
  ASSERT_EQ(result.reports.size(), 2u);
  // Request 1 spends the tenant's only retry token (attempts 2);
  // request 2 fails fast on its first attempt.
  EXPECT_EQ(Json::parse(result.reports[0]).find("attempts")->number, 2.0);
  EXPECT_EQ(Json::parse(result.reports[1]).find("attempts")->number, 1.0);
  EXPECT_EQ(result.stats.retries, 1u);
}

TEST(ChaosRetry, DeadlineCrossingBackoffSettlesDeadlineExceededOnce) {
  // Satellite: deadline + retry interplay. The first attempt fails
  // (injected, before any budget is spent), the backoff sleeps past
  // the 80 ms deadline, and the post-backoff check settles the request
  // deadline-exceeded without starting attempt 2 — with the 400-eval
  // tenant reservation refunded exactly once.
  svc::ServiceConfig config;
  config.backend = exec::BackendKind::Sequential;
  config.style.stable = true;
  config.tenant_budget = 1000;
  config.retry.max_attempts = 6;
  config.retry.backoff_base_ms = 200;
  config.retry.backoff_max_ms = 400;
  config.fault_plan = "seed=1;svc.request.run:every=1";
  svc::ServiceLoop service(config);
  std::vector<std::string> reports;
  const svc::EmitFn emit = [&](const std::string& line) {
    reports.push_back(line);
  };
  ASSERT_FALSE(service
                   .submit(request_line(1, "t", "gon", 2, 40, 5,
                                        ", \"max_dist_evals\": 400,"
                                        " \"deadline_ms\": 80"),
                           emit)
                   .has_value());
  service.close();
  service.run();
  ASSERT_EQ(reports.size(), 1u);
  const Json report = Json::parse(reports[0]);
  EXPECT_EQ(report.find("status")->string, "deadline-exceeded") << reports[0];
  EXPECT_NE(report.find("error")->string.find(
                "during retry backoff after attempt 1"),
            std::string::npos)
      << reports[0];
  EXPECT_EQ(report.find("attempts")->number, 1.0);  // attempt 2 never started
  const auto stats = service.stats();
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.failed, 1u);
  // Exactly-once refund: the injected failure consumed nothing, so the
  // tenant odometer must read zero spent after settlement.
  ASSERT_NE(service.tenant_budget("t"), nullptr);
  EXPECT_EQ(service.tenant_budget("t")->consumed(), 0u);
  EXPECT_EQ(service.deadline_entries(), 0u);
}

TEST(ChaosDegrade, LadderReroutesFlagsAndHonorsPerTenantOverride) {
  svc::ServiceConfig config;
  config.backend = exec::BackendKind::Sequential;
  config.style.stable = true;
  config.degrade.high_watermark = 0.0;  // degrade from the first request
  svc::DegradePolicy vip;
  vip.high_watermark = 2.0;  // disabled for this tenant
  config.tenant_degrade.emplace("vip", vip);
  const SoakResult result = soak(
      {
          request_line(1, "t", "mrg", 2, 60, 5),
          request_line(2, "vip", "mrg", 2, 60, 5),
      },
      config);
  ASSERT_EQ(result.reports.size(), 2u);
  const Json degraded = Json::parse(result.reports[0]);
  EXPECT_EQ(degraded.find("status")->string, "ok") << result.reports[0];
  EXPECT_EQ(degraded.find("algorithm")->string, "ccm");  // rerouted
  ASSERT_NE(degraded.find("degraded"), nullptr);
  EXPECT_TRUE(degraded.find("degraded")->boolean);
  const Json untouched = Json::parse(result.reports[1]);
  EXPECT_EQ(untouched.find("algorithm")->string, "mrg");
  EXPECT_EQ(untouched.find("degraded"), nullptr);
  EXPECT_EQ(result.stats.degraded, 1u);
}

TEST(ChaosDegrade, DegradedRequestKeepsItsPruneMode) {
  // Degradation makes a request cheaper by rerouting it and shrinking
  // its cap; it no longer forces the grid on. A degraded gon request
  // therefore runs the same scans as the same request undegraded and
  // reports the same work: equal dist_evals mean an equal pruned share
  // too, since evaluated plus pruned pairs are fixed by the solve. At
  // svc-closed-4k's shape (4,096 2-D points, k = 16) Auto builds no
  // grid; at dim 10 it never does, and a forced one would prune.
  svc::ServiceConfig config;
  config.backend = exec::BackendKind::Sequential;
  config.style.stable = true;
  config.degrade.high_watermark = 0.0;  // degrade from the first request
  svc::DegradePolicy vip;
  vip.high_watermark = 2.0;  // disabled for this tenant
  config.tenant_degrade.emplace("vip", vip);
  for (const std::size_t dim : {2u, 10u}) {
    SCOPED_TRACE("dim=" + std::to_string(dim));
    Rng rng(dim);
    const PointSet points = data::generate_gau(4096, 16, dim, 100.0, 0.1, rng);
    std::string rows;
    for (index_t i = 0; i < points.size(); ++i) {
      rows += i == 0 ? "[" : ", [";
      for (std::size_t d = 0; d < dim; ++d) {
        rows += (d == 0 ? "" : ", ") + svc::json_number(points[i][d]);
      }
      rows += "]";
    }
    const auto line = [&rows](int id, const char* tenant) {
      return "{\"id\": " + std::to_string(id) + ", \"tenant\": \"" +
             tenant +
             "\", \"algorithm\": \"gon\", \"k\": 16, \"points\": [" +
             rows + "]}";
    };
    const SoakResult result = soak({line(1, "t"), line(2, "vip")}, config);
    ASSERT_EQ(result.reports.size(), 2u);
    const Json degraded = Json::parse(result.reports[0]);
    const Json undegraded = Json::parse(result.reports[1]);
    ASSERT_EQ(degraded.find("status")->string, "ok") << result.reports[0];
    ASSERT_EQ(undegraded.find("status")->string, "ok") << result.reports[1];
    ASSERT_NE(degraded.find("degraded"), nullptr);
    EXPECT_EQ(undegraded.find("degraded"), nullptr);
    EXPECT_EQ(degraded.find("dist_evals")->number,
              undegraded.find("dist_evals")->number);
    // The budgeted evaluation pays for its unpruned pairs only, too.
    EXPECT_EQ(degraded.find("budget_consumed")->number,
              undegraded.find("budget_consumed")->number);
  }
}

TEST(ChaosWatchdog, StalledRequestIsCancelledWithDiagnostics) {
  // The injected stall parks the attempt for 400 ms while its budget
  // odometer sits still; the 50 ms watchdog cancels through the
  // request's token and the settlement carries the diagnostics.
  svc::ServiceConfig config;
  config.backend = exec::BackendKind::Sequential;
  config.style.stable = true;
  config.watchdog_ms = 50;
  config.fault_plan = "seed=1;svc.request.run:nth=1,times=1,stall_ms=400";
  const SoakResult result =
      soak({request_line(1, "t", "gon", 32, 2000, 5,
                         ", \"max_dist_evals\": 100000000")},
           config);
  ASSERT_EQ(result.reports.size(), 1u);
  const Json report = Json::parse(result.reports[0]);
  EXPECT_EQ(report.find("status")->string, "internal-error")
      << result.reports[0];
  EXPECT_NE(report.find("error")->string.find("watchdog: no budget progress"),
            std::string::npos)
      << result.reports[0];
  EXPECT_EQ(result.stats.watchdog_fired, 1u);
  EXPECT_EQ(result.watchdog_entries, 0u);  // no leaked watcher entries
}

TEST(ChaosWatchdog, WatchdogAndDeadlineShareOneTimer) {
  // One service, both timers armed: the first request stalls for 400 ms
  // under the 50 ms watchdog, and the second request's 20 ms deadline
  // must fire on the same timer thread while that stall is watched.
  svc::ServiceConfig config;
  config.backend = exec::BackendKind::Sequential;
  config.style.stable = true;
  config.watchdog_ms = 50;
  config.fault_plan = "seed=1;svc.request.run:nth=1,times=1,stall_ms=400";
  svc::ServiceLoop service(config);
  std::vector<std::string> reports;  // written by the consumer only
  const svc::EmitFn emit = [&](const std::string& line) {
    reports.push_back(line);
  };
  ASSERT_FALSE(service
                   .submit(request_line(1, "t", "gon", 32, 2000, 5,
                                        ", \"max_dist_evals\": 100000000"),
                           emit)
                   .has_value());
  ASSERT_FALSE(service
                   .submit(request_line(2, "t", "gon", 2, 40, 6,
                                        ", \"deadline_ms\": 20"),
                           emit)
                   .has_value());
  service.close();
  std::thread consumer([&service] { service.run(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_EQ(service.deadline_entries(), 0u);  // fired mid-stall
  consumer.join();

  ASSERT_EQ(reports.size(), 2u);
  const Json stalled = Json::parse(reports[0]);
  EXPECT_EQ(stalled.find("status")->string, "internal-error") << reports[0];
  EXPECT_NE(stalled.find("error")->string.find("watchdog:"), std::string::npos)
      << reports[0];
  EXPECT_EQ(status_of(reports[1]), "deadline-exceeded") << reports[1];
  EXPECT_EQ(service.stats().watchdog_fired, 1u);
  EXPECT_EQ(service.deadline_entries(), 0u);
  EXPECT_EQ(service.watchdog_entries(), 0u);
}

// ------------------------------------------------- machine failures

[[nodiscard]] std::vector<std::string> reducer_lines() {
  std::vector<std::string> lines;
  const char* algorithms[] = {"mrg", "eim", "mrg-du", "ccm"};
  const char* tenants[] = {"alpha", "beta", "gamma"};
  for (int i = 0; i < 12; ++i) {
    lines.push_back(request_line(i + 1, tenants[i % 3], algorithms[i % 4], 3,
                                 200, 900 + i));
  }
  return lines;
}

TEST(ChaosMachineFailure, SameSeedLosesTheSameMachinesOnEveryBackend) {
  // sim.machine decisions are keyed by (request seed, round ordinal,
  // machine index): the same plan seed loses the same machines whether
  // requests run one at a time or interleaved on a pool, so the report
  // streams must match byte for byte.
  const fault::ScopedPlan armed("seed=7;sim.machine:p=0.1");
  const auto lines = reducer_lines();

  svc::ServiceConfig seq;
  seq.backend = exec::BackendKind::Sequential;
  seq.style.stable = true;
  seq.queue_capacity = lines.size() + 1;
  const SoakResult sequential = soak(lines, seq);

  svc::ServiceConfig pool;
  pool.backend = exec::BackendKind::ThreadPool;
  pool.threads = 4;
  pool.max_in_flight = 4;
  pool.style.stable = true;
  pool.queue_capacity = lines.size() + 1;
  const SoakResult concurrent = soak(lines, pool);

  EXPECT_GT(fault::stats("sim.machine").fires, 0u);  // losses really happened
  ASSERT_EQ(sequential.reports.size(), lines.size());
  EXPECT_EQ(sequential.reports, concurrent.reports);
  for (const auto& report : sequential.reports) {
    EXPECT_EQ(status_of(report), "ok") << report;
  }
}

TEST(ChaosMachineFailure, ArmedButUnfiredPlanLeavesReportsByteIdentical) {
  const auto lines = reducer_lines();
  svc::ServiceConfig config;
  config.backend = exec::BackendKind::Sequential;
  config.style.stable = true;
  config.queue_capacity = lines.size() + 1;
  const SoakResult baseline = soak(lines, config);
  SoakResult armed_run = [&] {
    // The armed site is never hit in-process (svc.emit.* lives in the
    // serve binary), so the zero-fault path must not change a byte.
    const fault::ScopedPlan armed("seed=3;svc.emit.write:nth=1");
    return soak(lines, config);
  }();
  EXPECT_EQ(baseline.reports, armed_run.reports);
}

TEST(ChaosMachineFailure, UnsurvivableLossExhaustsAttemptsAsInternalError) {
  // p=1 loses every machine of every round attempt; after the retry
  // cap the round surfaces as a typed internal error, never a hang or
  // a partial report.
  svc::ServiceConfig config;
  config.backend = exec::BackendKind::Sequential;
  config.style.stable = true;
  config.fault_plan = "seed=1;sim.machine:p=1";
  const SoakResult result = soak({request_line(1, "t", "mrg", 3, 120, 9)},
                                 config);
  ASSERT_EQ(result.reports.size(), 1u);
  const Json report = Json::parse(result.reports[0]);
  EXPECT_EQ(report.find("status")->string, "internal-error")
      << result.reports[0];
  EXPECT_NE(report.find("error")->string.find("machine loss"),
            std::string::npos)
      << result.reports[0];
}

/// One solve of the golden-trace check: the centers, then each round
/// attempt's name, machines used, machines lost, and evaluated plus
/// pruned pairs (a sum that reads the same with pruning forced off).
[[nodiscard]] std::string render_solve(const api::SolveReport& report) {
  std::ostringstream out;
  out << "centers";
  for (const index_t c : report.centers) out << ' ' << c;
  out << '\n';
  for (const mr::RoundStats& round : report.trace.rounds()) {
    out << round.name << ' ' << round.machines_used << ' '
        << round.machines_lost << ' '
        << round.total_dist_evals + round.total_pairs_pruned << '\n';
  }
  return out.str();
}

struct GoldenSolve {
  const char* algorithm;
  const char* rendered;  ///< render_solve() of the recorded solve
};

// The plan below loses machines in every solve. EIM samples at this
// shape, so its re-chunked sample and prune retries are pinned too;
// mrg-du's two chunk MRGs lose the same machines, since each starts a
// fresh trace and so repeats the round ordinals the loss keys mix in.
const GoldenSolve kGoldenSolves[] = {
    {"mrg",
     "centers 0 702 5694 15561 19858 17809 7055 11724 11406 1936 "
     "4534 13970 10335 19566 11936 12470 5900 11748 661 19264 384 "
     "15133 4307 5757 7178\n"
     "mrg-reduce 50 1 490000\n"
     "mrg-reduce 49 3 469375\n"
     "mrg-reduce 46 0 500000\n"
     "mrg-final 1 0 28750\n"},
    {"eim",
     "centers 4 9413 19060 6217 661 8091 7079 9538 13535 7833 "
     "18802 6467 16473 10335 5900 8666 9855 6859 19264 15133 384 "
     "16153 11748 7893 3498\n"
     "eim-sample 50 1 0\n"
     "eim-sample 49 3 0\n"
     "eim-sample 46 0 0\n"
     "eim-select 1 0 125097\n"
     "eim-prune 46 0 51060000\n"
     "eim-sample 50 0 0\n"
     "eim-select 1 0 117315\n"
     "eim-prune 50 1 30220344\n"
     "eim-prune 49 2 29576415\n"
     "eim-prune 47 2 29524275\n"
     "eim-prune 45 0 30835596\n"
     "eim-final 1 0 333100\n"},
    {"ccm",
     "centers 0 702 9587 13736 10950 5486 7055 13946 11406 19530 "
     "19192 2858 10335 10365 9855 6864 15471 19264 15006 661 11393 "
     "15133 14048 17461 3498\n"
     "ccm-estimate 50 1 490000\n"
     "ccm-estimate 50 3 470000\n"
     "ccm-estimate 50 1 490000\n"
     "ccm-estimate 50 2 480000\n"
     "ccm-estimate 50 0 500000\n"
     "ccm-grid 50 0 0\n"
     "ccm-final 1 0 234275\n"},
    {"mrg-du",
     "centers 0 702 9587 13736 7096 5486 7055 4277 5918 356 2326 "
     "8938 10335 9857 11936 5900 15471 11748 19264 661 6917 7833 "
     "15133 7810 3498\n"
     "mrg-reduce 50 1 245000\n"
     "mrg-reduce 49 3 234700\n"
     "mrg-reduce 46 0 250000\n"
     "mrg-final 1 0 28750\n"
     "mrg-reduce 50 1 245000\n"
     "mrg-reduce 49 3 234700\n"
     "mrg-reduce 46 0 250000\n"
     "mrg-final 1 0 28750\n"
     "union-final 1 0 1250\n"},
};

TEST(ChaosMachineFailure, RetriedRoundsReplayTheirGoldenTraces) {
  Rng rng(23);
  const PointSet data = data::generate_gau(20'000, 25, 2, 100.0, 0.5, rng);
  const fault::ScopedPlan armed("seed=5;sim.machine:p=0.02");
  for (const GoldenSolve& golden : kGoldenSolves) {
    SCOPED_TRACE(golden.algorithm);
    api::SolveRequest request;
    request.points = &data;
    request.k = 25;
    request.algorithm = golden.algorithm;
    request.exec.kind = exec::BackendKind::Sequential;
    request.exec.machines = 50;
    request.seed = 1;
    const api::SolveReport report = api::Solver().solve(request);
    const auto& rounds = report.trace.rounds();
    EXPECT_TRUE(std::any_of(rounds.begin(), rounds.end(), [](const auto& r) {
      return r.machines_lost > 0;
    }));
    EXPECT_EQ(render_solve(report), golden.rendered);
  }
}

// -------------------------------------------------------- the soak

/// The committed chaos mix; the CI chaos leg overrides it through
/// KC_FAULT_PLAN to run the whole soak under an externally pinned
/// plan (including the TSan job).
[[nodiscard]] std::string soak_plan() {
  const char* env = std::getenv("KC_FAULT_PLAN");
  if (env != nullptr && *env != '\0') return env;
  return "seed=1337;svc.request.run:p=0.05;exec.task.run:p=0.002;"
         "sim.machine:p=0.02;codec.alloc:nth=97";
}

[[nodiscard]] std::vector<std::string> soak_lines() {
  const char* tenants[] = {"alpha", "beta", "gamma", "delta"};
  const char* algorithms[] = {"gon", "mrg", "eim", "ccm", "hs", "mrg-du"};
  std::vector<std::string> lines;
  for (int i = 0; i < 1050; ++i) {
    if (i % 83 == 41) {
      lines.push_back("{this is not a request");
      continue;
    }
    const std::string extra =
        i % 7 == 0 ? "" : ", \"max_dist_evals\": 10000";
    lines.push_back(request_line(i + 1, tenants[i % 4], algorithms[i % 6],
                                 1 + i % 4, 16 + i % 33, 2000 + i, extra));
  }
  return lines;
}

void check_soak_invariants(const SoakResult& result,
                           const std::vector<std::string>& lines) {
  // Exactly one typed report per submitted line.
  ASSERT_EQ(result.reports.size(), lines.size());
  EXPECT_EQ(result.stats.admitted + result.stats.rejected, lines.size());
  EXPECT_EQ(result.stats.completed + result.stats.failed,
            result.stats.admitted);
  std::set<std::uint64_t> ids;
  for (const auto& line : result.reports) {
    const Json report = Json::parse(line);
    const std::string status = report.find("status")->string;
    EXPECT_TRUE(status == "ok" || status == "bad-request" ||
                status == "internal-error" || status == "budget-exceeded")
        << line;
    const auto id = static_cast<std::uint64_t>(report.find("id")->number);
    if (id != 0) {
      EXPECT_TRUE(ids.insert(id).second) << "duplicate id " << id;
    }
  }
  // No watcher state may outlive the drain.
  EXPECT_EQ(result.deadline_entries, 0u);
  EXPECT_EQ(result.watchdog_entries, 0u);
}

TEST(ChaosSoak, SameSeedSequentialRunsAreByteIdentical) {
  const auto lines = soak_lines();
  svc::ServiceConfig config;
  config.backend = exec::BackendKind::Sequential;
  config.style.stable = true;
  config.queue_capacity = lines.size() + 8;
  config.tenant_budget = 5'000'000;
  config.retry.max_attempts = 3;
  config.retry.backoff_base_ms = 1;
  config.retry.backoff_max_ms = 4;
  config.fault_plan = soak_plan();
  const SoakResult first = soak(lines, config);
  const SoakResult second = soak(lines, config);
  check_soak_invariants(first, lines);
  // Re-arming the plan resets the per-site counters, so the injected
  // failures — and therefore every report byte — replay exactly.
  EXPECT_EQ(first.reports, second.reports);
  EXPECT_EQ(first.stats.retries, second.stats.retries);
}

TEST(ChaosSoak, ConcurrentSoakDrainsWithOneReportPerRequest) {
  const auto lines = soak_lines();
  svc::ServiceConfig config;
  config.backend = exec::BackendKind::ThreadPool;
  config.threads = 4;
  config.max_in_flight = 4;
  config.style.stable = true;
  config.queue_capacity = lines.size() + 8;
  config.tenant_budget = 5'000'000;
  config.retry.max_attempts = 3;
  config.retry.backoff_base_ms = 1;
  config.retry.backoff_max_ms = 4;
  config.fault_plan = soak_plan();
  const SoakResult result = soak(lines, config);
  check_soak_invariants(result, lines);
}

}  // namespace
}  // namespace kc
