// Deprecated alias: EpochPool moved to common/epoch_pool.h.
// LITMUS-LINT-ALLOW(test-only): litmus_bench/unit_costs.cc includes it; delete with the next benchmark change
#include "common/epoch_pool.h"
namespace litmus::cluster { using EpochPool = litmus::EpochPool; }
