// Umbrella header: the public API of the parallel k-center library.
//
//   #include "core/kcenter.hpp"
//
//   kc::Rng rng(7);
//   kc::PointSet data = kc::data::generate_gau(100'000, 25, 2, 100.0, 0.1, rng);
//
//   kc::api::SolveRequest request;
//   request.points = &data;
//   request.k = 25;
//   request.algorithm = "mrg";       // any kc::api::registry() name
//   kc::api::Solver solver;
//   kc::api::SolveReport report = solver.solve(request);
//   // report.centers, report.value (covering radius over all points),
//   // report.guarantee, report.trace, report.sim_seconds, ...
//
// The facade (src/api/) validates the request, dispatches through the
// string-keyed algorithm registry, and returns one unified report;
// invalid requests, unavailable backends, exhausted budgets and fired
// cancellation tokens surface as kc::api::Error with a typed kind. The
// underlying free functions — kc::gonzalez, kc::hochbaum_shmoys,
// kc::mrg, kc::eim, kc::brute_force_opt — remain public and are what
// the registry's built-in runners call; use them directly when you
// already hold a DistanceOracle/SimCluster and want no intermediary.
//
// See docs/architecture.md for the architecture overview.
#pragma once

#include "algo/brute_force.hpp"
#include "algo/gonzalez.hpp"
#include "algo/hochbaum_shmoys.hpp"
#include "algo/result.hpp"
#include "api/error.hpp"
#include "api/registry.hpp"
#include "api/report.hpp"
#include "api/request.hpp"
#include "api/solver.hpp"
#include "core/ccm.hpp"
#include "core/disjoint_union.hpp"
#include "core/driver.hpp"
#include "core/eim.hpp"
#include "core/hooks.hpp"
#include "core/mrg.hpp"
#include "data/generators.hpp"
#include "data/loader.hpp"
#include "data/planted.hpp"
#include "data/surrogates.hpp"
#include "eval/evaluate.hpp"
#include "eval/lower_bound.hpp"
#include "exec/backend.hpp"
#include "exec/cancellation.hpp"
#include "exec/chunk_context.hpp"
#include "exec/cpu_clock.hpp"
#include "exec/scheduler.hpp"
#include "geom/counters.hpp"
#include "geom/distance.hpp"
#include "geom/point_set.hpp"
#include "mapreduce/cluster.hpp"
#include "mapreduce/partition.hpp"
#include "mapreduce/round_stats.hpp"
#include "mapreduce/trace.hpp"
#include "rng/rng.hpp"
