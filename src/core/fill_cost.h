// Fill-cost weights. A cacheable function's fill cost is the wall-clock time its frame took
// plus these per-unit charges for the database work the frame performed. The wall term
// captures real deployments; the weighted term keeps costs meaningful under the simulator,
// whose virtual clock does not advance while application code runs. sim::CostModel prices
// database work with the same weights, so the fill costs shipped with inserts are in the
// currency the simulator charges.
#ifndef SRC_CORE_FILL_COST_H_
#define SRC_CORE_FILL_COST_H_

#include "src/util/types.h"

namespace txcache {

inline constexpr WallClock kFillCostPerQuery = Millis(0.12);   // parse/plan/executor setup
inline constexpr WallClock kFillCostPerTuple = Millis(0.004);  // per heap version examined
inline constexpr WallClock kFillCostPerProbe = Millis(0.015);  // per index descent

}  // namespace txcache

#endif  // SRC_CORE_FILL_COST_H_
