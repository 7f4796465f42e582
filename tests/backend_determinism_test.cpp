// Cross-backend determinism: the execution backend decides only where
// closures run, so for a fixed seed MRG and EIM must produce identical
// centers, radii, round/iteration counts, and per-round (and
// per-machine-max) distance-eval counts under Sequential and
// ThreadPool — including when the oracle's sharded distance kernels
// are forced on with a tiny shard threshold.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "harness/experiment.hpp"
#include "test_util.hpp"

namespace kc {
namespace {

std::vector<std::shared_ptr<exec::ExecutionBackend>> all_backends() {
  std::vector<std::shared_ptr<exec::ExecutionBackend>> backends;
  backends.push_back(exec::make_backend(exec::BackendKind::Sequential));
  backends.push_back(exec::make_backend(exec::BackendKind::ThreadPool, 4));
  return backends;
}

/// The simulated metrics of one trace that must be backend-invariant
/// (times are wall-clock measurements and legitimately vary).
struct TraceCounts {
  std::vector<std::string> names;
  std::vector<int> machines;
  std::vector<std::uint64_t> total_evals;
  std::vector<std::uint64_t> max_evals;
  std::vector<std::uint64_t> items_in, items_out;

  explicit TraceCounts(const mr::JobTrace& trace) {
    for (const auto& r : trace.rounds()) {
      names.push_back(r.name);
      machines.push_back(r.machines_used);
      total_evals.push_back(r.total_dist_evals);
      max_evals.push_back(r.max_machine_dist_evals);
      items_in.push_back(r.items_in);
      items_out.push_back(r.items_out);
    }
  }

  friend bool operator==(const TraceCounts&, const TraceCounts&) = default;
};

/// Oracle bound to `backend` with a tiny shard threshold, so even
/// test-sized scans exercise the two-level parallel kernels.
DistanceOracle sharded_oracle(const PointSet& ps,
                              exec::ExecutionBackend* backend) {
  DistanceOracle oracle(ps);
  oracle.bind_executor(backend, /*min_items=*/64);
  return oracle;
}

TEST(BackendDeterminism, MrgInvariantAcrossBackends) {
  const PointSet ps = test::small_gaussian_instance(6, 400, 21);
  const auto all = ps.all_indices();
  MrgOptions options;
  options.seed = 99;
  // Small capacity forces a multi-round run (40 machines emit 200
  // centers > 60), so several distinct round shapes — wide reduce,
  // narrow reduce, final — are all compared.
  options.capacity = 60;

  const auto backends = all_backends();
  ASSERT_GE(backends.size(), 2u);

  std::vector<MrgResult> results;
  for (const auto& backend : backends) {
    const DistanceOracle oracle = sharded_oracle(ps, backend.get());
    const mr::SimCluster cluster(40, 0, backend);
    results.push_back(mrg(oracle, all, 5, cluster, options));
  }

  const auto& reference = results.front();
  EXPECT_GT(reference.reduce_rounds, 1);  // multi-round regime reached
  for (std::size_t b = 1; b < results.size(); ++b) {
    SCOPED_TRACE(std::string(backends[b]->name()));
    EXPECT_EQ(results[b].centers, reference.centers);
    EXPECT_EQ(results[b].radius_comparable, reference.radius_comparable);
    EXPECT_EQ(results[b].reduce_rounds, reference.reduce_rounds);
    EXPECT_EQ(TraceCounts(results[b].trace), TraceCounts(reference.trace));
  }
}

TEST(BackendDeterminism, CcmInvariantAcrossBackends) {
  const PointSet ps = test::small_gaussian_instance(6, 400, 23);
  const auto all = ps.all_indices();
  CcmOptions options;
  options.seed = 17;
  options.epsilon = 0.25;
  options.first_center = GonzalezOptions::FirstCenter::Random;

  const auto backends = all_backends();
  ASSERT_GE(backends.size(), 2u);

  std::vector<CcmResult> results;
  for (const auto& backend : backends) {
    const DistanceOracle oracle = sharded_oracle(ps, backend.get());
    const mr::SimCluster cluster(16, 0, backend);
    results.push_back(ccm(oracle, all, 5, cluster, options));
  }

  const auto& reference = results.front();
  EXPECT_EQ(reference.centers.size(), 5u);
  EXPECT_GT(reference.coreset_size, 5u);  // the grid round really ran
  EXPECT_GT(reference.grid_width, 0.0);
  for (std::size_t b = 1; b < results.size(); ++b) {
    SCOPED_TRACE(std::string(backends[b]->name()));
    EXPECT_EQ(results[b].centers, reference.centers);
    EXPECT_EQ(results[b].radius_comparable, reference.radius_comparable);
    EXPECT_EQ(results[b].coreset_size, reference.coreset_size);
    EXPECT_EQ(results[b].grid_width, reference.grid_width);
    EXPECT_EQ(TraceCounts(results[b].trace), TraceCounts(reference.trace));
  }
}

TEST(BackendDeterminism, EimInvariantAcrossBackends) {
  const PointSet ps = test::small_gaussian_instance(5, 2000, 33);
  const auto all = ps.all_indices();
  EimOptions options;
  options.seed = 7;

  const auto backends = all_backends();
  std::vector<EimResult> results;
  for (const auto& backend : backends) {
    const DistanceOracle oracle = sharded_oracle(ps, backend.get());
    const mr::SimCluster cluster(10, 0, backend);
    results.push_back(eim(oracle, all, 5, cluster, options));
  }

  const auto& reference = results.front();
  ASSERT_TRUE(reference.sampled);  // the parallel regime, not the collapse
  for (std::size_t b = 1; b < results.size(); ++b) {
    SCOPED_TRACE(std::string(backends[b]->name()));
    EXPECT_EQ(results[b].centers, reference.centers);
    EXPECT_EQ(results[b].radius_comparable, reference.radius_comparable);
    EXPECT_EQ(results[b].iterations, reference.iterations);
    EXPECT_EQ(results[b].final_sample_size, reference.final_sample_size);
    EXPECT_EQ(TraceCounts(results[b].trace), TraceCounts(reference.trace));
  }
}

TEST(BackendDeterminism, ShardedKernelsMatchSequentialBitForBit) {
  const PointSet ps = test::small_gaussian_instance(4, 1000, 5);
  const auto all = ps.all_indices();
  const DistanceOracle plain(ps);

  std::vector<double> expected(all.size(), kInfDist);
  counters::reset();
  plain.update_nearest(all, 0, expected);
  plain.update_nearest_multi(all, std::vector<index_t>{1, 2, 3}, expected);
  const auto expected_evals = counters::read().distance_evals;

  for (const auto& backend : all_backends()) {
    SCOPED_TRACE(std::string(backend->name()));
    const DistanceOracle sharded = sharded_oracle(ps, backend.get());
    std::vector<double> best(all.size(), kInfDist);
    counters::reset();
    sharded.update_nearest(all, 0, best);
    sharded.update_nearest_multi(all, std::vector<index_t>{1, 2, 3}, best);
    // Same values bit for bit, and the whole scan charged to this
    // thread regardless of which threads executed it.
    EXPECT_EQ(best, expected);
    EXPECT_EQ(counters::read().distance_evals, expected_evals);
  }
  counters::reset();
}

TEST(BackendDeterminism, SimdKernelsMatchForcedScalarEndToEnd) {
  // The kernel engine is one more axis that must not change simulated
  // results: a full MRG and EIM run with the runtime-dispatched SIMD
  // table must equal the same run with the scalar table forced (the
  // in-process equivalent of KC_FORCE_SCALAR). Trivially true on
  // scalar-only hosts; on AVX hosts this is the end-to-end
  // bit-identity check.
  const PointSet ps = test::small_gaussian_instance(5, 2000, 33);
  const auto all = ps.all_indices();
  const auto backend = exec::make_backend(exec::BackendKind::ThreadPool, 4);
  const mr::SimCluster cluster(10, 0, backend);

  DistanceOracle active = sharded_oracle(ps, backend.get());
  DistanceOracle forced = sharded_oracle(ps, backend.get());
  forced.force_kernels(simd::kernels_for(simd::IsaLevel::Scalar));

  EimOptions eim_options;
  eim_options.seed = 7;
  const auto eim_a = eim(active, all, 5, cluster, eim_options);
  const auto eim_b = eim(forced, all, 5, cluster, eim_options);
  EXPECT_EQ(eim_a.centers, eim_b.centers);
  EXPECT_EQ(eim_a.radius_comparable, eim_b.radius_comparable);
  EXPECT_EQ(eim_a.iterations, eim_b.iterations);
  EXPECT_EQ(TraceCounts(eim_a.trace), TraceCounts(eim_b.trace));

  const PointSet mrg_ps = test::small_gaussian_instance(6, 400, 21);
  const auto mrg_all = mrg_ps.all_indices();
  DistanceOracle mrg_active = sharded_oracle(mrg_ps, backend.get());
  DistanceOracle mrg_forced = sharded_oracle(mrg_ps, backend.get());
  mrg_forced.force_kernels(simd::kernels_for(simd::IsaLevel::Scalar));
  MrgOptions mrg_options;
  mrg_options.seed = 99;
  mrg_options.capacity = 60;  // multi-round regime, as in the MRG test above
  const mr::SimCluster mrg_cluster(40, 0, backend);
  const auto mrg_a = mrg(mrg_active, mrg_all, 5, mrg_cluster, mrg_options);
  const auto mrg_b = mrg(mrg_forced, mrg_all, 5, mrg_cluster, mrg_options);
  EXPECT_EQ(mrg_a.centers, mrg_b.centers);
  EXPECT_EQ(mrg_a.radius_comparable, mrg_b.radius_comparable);
  EXPECT_EQ(TraceCounts(mrg_a.trace), TraceCounts(mrg_b.trace));
}

TEST(BackendDeterminism, HarnessRunsIdenticalValueAcrossBackends) {
  const PointSet ps = test::small_gaussian_instance(5, 500, 13);
  const auto pool = harness::DatasetPool::wrap(ps);

  for (const auto kind : {harness::AlgoKind::MRG, harness::AlgoKind::EIM,
                          harness::AlgoKind::GON}) {
    harness::AlgoConfig seq;
    seq.kind = kind;
    seq.machines = 8;
    harness::AlgoConfig pooled = seq;
    pooled.exec = exec::BackendKind::ThreadPool;
    pooled.threads = 4;

    const auto a = harness::run_repeated(seq, pool, 5, 2, 17);
    const auto b = harness::run_repeated(pooled, pool, 5, 2, 17);
    EXPECT_EQ(a.value, b.value);
    EXPECT_EQ(a.map_reduce_rounds, b.map_reduce_rounds);
    EXPECT_EQ(a.dist_evals, b.dist_evals);
  }
}

}  // namespace
}  // namespace kc
