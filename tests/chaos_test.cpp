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
#include "core/disjoint_union.hpp"
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

/// The fields of a solve that a machine loss must not change: the
/// centers, the value and radius bits, the iteration and sample counts
/// and the work counters. Only `rounds`, the trace and the simulated
/// time may differ.
[[nodiscard]] std::string answer_of(const api::SolveReport& report) {
  std::ostringstream out;
  out << std::hexfloat << "centers";
  for (const index_t c : report.centers) out << ' ' << c;
  out << "\nvalue " << report.value << " radius " << report.radius_comparable
      << "\niterations " << report.iterations << " final_sample_size "
      << report.final_sample_size << "\ndist_evals " << report.dist_evals
      << " pairs_pruned " << report.pairs_pruned << " budget_consumed "
      << report.budget_consumed << '\n';
  return out.str();
}

/// Checks that some attempt of `trace` lost a machine and that each
/// retry re-ran exactly the machines its previous attempt lost.
void expect_retries_rerun_the_lost(const mr::JobTrace& trace) {
  const auto& rounds = trace.rounds();
  EXPECT_TRUE(std::any_of(rounds.begin(), rounds.end(), [](const auto& r) {
    return r.machines_lost > 0;
  }));
  for (std::size_t i = 1; i < rounds.size(); ++i) {
    if (rounds[i - 1].machines_lost == 0) continue;
    EXPECT_EQ(rounds[i].name, rounds[i - 1].name) << "attempt " << i;
    EXPECT_EQ(rounds[i].machines_used, rounds[i - 1].machines_lost)
        << "attempt " << i;
  }
}

// A round that loses machines re-runs only their tasks, so a solve that
// completes under a loss plan reports the lossless answer, on either
// backend. Every plan below loses machines in every solve.
TEST(ChaosMachineFailure, LossyRunsReportTheLosslessAnswer) {
  Rng rng(23);
  const PointSet data = data::generate_gau(20'000, 25, 2, 100.0, 0.5, rng);
  std::vector<int> assignment(data.size());
  for (std::size_t i = 0; i < assignment.size(); ++i) {
    assignment[i] = static_cast<int>(i * 7 % 50);
  }
  struct Config {
    const char* algorithm;
    bool explicit_partition;  ///< MRG's first round on `assignment`
  };
  const auto solve = [&](const Config& config, exec::BackendKind kind) {
    api::SolveRequest request;
    request.points = &data;
    request.k = 25;
    request.algorithm = config.algorithm;
    if (config.explicit_partition) {
      MrgOptions options;
      options.partition = mr::PartitionStrategy::Explicit;
      options.explicit_assignment = assignment;
      request.options = options;
    }
    request.exec.kind = kind;
    request.exec.threads = 4;
    request.exec.machines = 50;
    request.seed = 1;
    request.max_dist_evals = std::uint64_t{1} << 40;
    request.budgeted_eval = true;
    return api::Solver().solve(request);
  };
  const Config configs[] = {{"mrg", false},
                            {"mrg", true},
                            {"eim", false},
                            {"ccm", false},
                            {"mrg-du", false}};
  const char* sequential_plans[] = {
      "seed=5;sim.machine:p=0.02", "seed=2;sim.machine:p=0.02",
      "seed=2;sim.machine:p=0.05", "seed=1;sim.machine:p=0.1",
      "seed=2;sim.machine:p=0.1",  "seed=4;sim.machine:p=0.3"};
  const char* pool_plan = "seed=2;sim.machine:p=0.1";
  for (const Config& config : configs) {
    SCOPED_TRACE(std::string(config.algorithm) +
                 (config.explicit_partition ? " (explicit)" : ""));
    // The baseline runs with no plan armed and never reads
    // KC_FAULT_PLAN, so it stays lossless under the CI chaos legs.
    const std::string lossless =
        answer_of(solve(config, exec::BackendKind::Sequential));
    for (const char* plan : sequential_plans) {
      SCOPED_TRACE(plan);
      const fault::ScopedPlan armed(plan);
      const api::SolveReport report =
          solve(config, exec::BackendKind::Sequential);
      EXPECT_EQ(answer_of(report), lossless);
      expect_retries_rerun_the_lost(report.trace);
    }
    SCOPED_TRACE(std::string("pool, ") + pool_plan);
    const fault::ScopedPlan armed(pool_plan);
    const api::SolveReport report =
        solve(config, exec::BackendKind::ThreadPool);
    EXPECT_EQ(answer_of(report), lossless);
    expect_retries_rerun_the_lost(report.trace);
  }
}

/// Each attempt of `trace` as "name machines_used machines_lost".
[[nodiscard]] std::vector<std::string> attempts_of(const mr::JobTrace& trace) {
  std::vector<std::string> attempts;
  for (const mr::RoundStats& round : trace.rounds()) {
    attempts.push_back(round.name + ' ' + std::to_string(round.machines_used) +
                       ' ' + std::to_string(round.machines_lost));
  }
  return attempts;
}

TEST(ChaosMachineFailure, DisjointUnionChunksDrawTheirOwnLosses) {
  // Each chunk's MRG starts a fresh trace, so both chunks repeat the
  // same round ordinals; the chunk mixed into each one's fault scope
  // keeps their losses apart. With one scope for both, these two
  // equal-sized chunks would lose the same machines in every attempt.
  Rng rng(23);
  const PointSet data = data::generate_gau(20'000, 25, 2, 100.0, 0.5, rng);
  const DistanceOracle oracle(data);
  const auto all = data.all_indices();
  mr::SimCluster cluster(50);
  cluster.set_fault_scope(1);
  const fault::ScopedPlan armed("seed=5;sim.machine:p=0.02");
  const DisjointUnionResult result =
      mrg_disjoint_union(oracle, all, 25, cluster, DisjointUnionOptions{});
  ASSERT_EQ(result.chunk_results.size(), 2u);
  const auto first = attempts_of(result.chunk_results[0].trace);
  const auto second = attempts_of(result.chunk_results[1].trace);
  EXPECT_NE(first, second);
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
