// Surrogates for the two UCI data sets used in the paper's experiments.
//
// Neither file ships with this repository (offline build), so each has
// a synthetic stand-in that reproduces the geometric structure the
// k-center algorithms actually respond to; the genuine files can be
// substituted at runtime via data::load_numeric_csv and the benches'
// --poker-file / --kdd-file flags. Each substitution is documented
// below.
//
// POKER HAND (training set: 25,010 rows, 10 integer attributes): five
// cards, each as (suit in 1..4, rank in 1..13), class label dropped.
// Hands are dealt (near) uniformly in the original, so drawing 25,010
// uniform 5-card hands from a 52-card deck reproduces the distance
// distribution (paper values span ~8.4 .. 19.4, Table 5).
//
// KDD CUP 1999 (10% subset: 494,021 rows; the 38 numeric attributes):
// dominated by a few enormous traffic archetypes (smurf ~57%, neptune
// ~21%, normal ~19%) plus a long tail of rare attack types, with
// heavy-tailed byte counters reaching ~1.4e9 — those outliers are what
// make Figure 1's solution values span 10^4..10^9 and what makes the
// instance hostile to sampling-based algorithms. The surrogate draws
// from a weighted mixture over such archetypes.
#pragma once

#include "geom/point_set.hpp"
#include "rng/rng.hpp"

namespace kc::data {

inline constexpr std::size_t kPokerHandRows = 25'010;
inline constexpr std::size_t kPokerHandDim = 10;

inline constexpr std::size_t kKddCupRows = 494'021;
inline constexpr std::size_t kKddCupDim = 38;

/// `n` uniformly random 5-card poker hands in the UCI encoding.
[[nodiscard]] PointSet poker_hand_surrogate(std::size_t n, Rng& rng);

/// `n` synthetic network-connection records over the 38 numeric
/// KDD attributes, drawn from the archetype mixture described above.
[[nodiscard]] PointSet kdd_cup_surrogate(std::size_t n, Rng& rng);

}  // namespace kc::data
