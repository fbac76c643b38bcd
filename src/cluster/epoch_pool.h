// Deprecated alias: EpochPool moved to common/epoch_pool.h.
#include "common/epoch_pool.h"
namespace litmus::cluster { using EpochPool = litmus::EpochPool; }
