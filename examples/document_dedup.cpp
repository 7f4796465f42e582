// Representative-document selection: the paper's other motivating
// application ("the least 'similar' document"). Pick k representative
// documents so that every document is close to a representative; the
// k-center radius is the worst dissimilarity any document has to its
// representative.
//
//   ./examples/document_dedup [--docs=60000] [--topics=30] [--reps=30]
//                             [--dims=64] [--seed=3]
//
// Documents are synthesized as topic-model feature vectors: each
// document = its topic's signature plus idiosyncratic noise, with a
// heavy-tailed topic popularity (a few topics dominate, like real
// corpora). The example contrasts GON and MRG and shows how well the
// chosen representatives cover each topic.
#include <cmath>
#include <cstdio>
#include <exception>
#include <vector>

#include "cli/args.hpp"
#include "core/kcenter.hpp"
#include "harness/format.hpp"
#include "harness/table.hpp"

namespace {

/// Synthesizes `docs` documents over `dims` features from `topics`
/// topic signatures with Zipfian popularity.
kc::PointSet make_corpus(std::size_t docs, std::size_t topics,
                         std::size_t dims, kc::Rng& rng) {
  // Topic signatures: sparse-ish positive feature profiles.
  kc::PointSet signatures(topics, dims);
  for (kc::index_t t = 0; t < topics; ++t) {
    auto sig = signatures.mutable_point(t);
    for (auto& f : sig) {
      f = rng.bernoulli(0.25) ? rng.uniform(2.0, 8.0) : rng.uniform(0.0, 0.3);
    }
  }
  // Zipf-like popularity weights 1/rank.
  std::vector<double> weights(topics);
  for (std::size_t t = 0; t < topics; ++t) {
    weights[t] = 1.0 / static_cast<double>(t + 1);
  }

  kc::PointSet corpus(docs, dims);
  for (kc::index_t d = 0; d < docs; ++d) {
    const auto topic =
        static_cast<kc::index_t>(rng.categorical(weights));
    const auto sig = signatures[topic];
    auto doc = corpus.mutable_point(d);
    for (std::size_t f = 0; f < dims; ++f) {
      doc[f] = std::max(0.0, sig[f] + rng.gaussian(0.0, 0.35));
    }
  }
  return corpus;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    kc::cli::Args args(argc, argv);
    const std::size_t docs = args.size("docs", 60'000);
    const std::size_t topics = args.size("topics", 30);
    const std::size_t reps = args.size("reps", 30);
    const std::size_t dims = args.size("dims", 64);
    const std::uint64_t seed = args.size("seed", 3);
    kc::cli::reject_unknown_flags(args);

    std::printf(
        "document dedup: %zu documents, %zu latent topics, "
        "selecting %zu representatives (%zu features)\n\n",
        docs, topics, reps, dims);

    kc::Rng rng(seed);
    const kc::PointSet corpus = make_corpus(docs, topics, dims, rng);
    const kc::DistanceOracle oracle(corpus);
    const auto all = corpus.all_indices();

    kc::harness::Table table(
        {"method", "max dissimilarity", "mean cluster radius", "time (s)"});

    kc::api::SolveRequest request;
    request.points = &corpus;
    request.k = reps;
    request.seed = seed;
    kc::api::Solver solver;
    for (const char* algo : {"gon", "mrg"}) {
      request.algorithm = algo;
      const kc::api::SolveReport report = solver.solve(request);
      const auto stats = kc::eval::cluster_stats(
          oracle, all, std::span<const kc::index_t>(report.centers));
      table.add_row({report.algorithm,
                     kc::harness::format_sig(report.value),
                     kc::harness::format_sig(stats.mean_radius),
                     kc::harness::format_seconds(report.sim_seconds)});
    }
    std::printf("%s\n", table.to_string().c_str());

    std::printf(
        "Interpretation: every document differs from its representative\n"
        "by at most the 'max dissimilarity' above; MRG reaches the same\n"
        "coverage as the sequential scan at a fraction of the per-machine "
        "cost.\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "document_dedup: %s\n", e.what());
    return kc::cli::exit_status(e);
  }
}
