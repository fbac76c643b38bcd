// Fixture: every header in this tree has a caller besides its own
// .cc (test-only), and every include here is used (include-graph).
#include "core/unordered_decl_good.h"
#include "sim/include_chain.h"
#include "sim/lock_annotation_good.h"

int
fixtureUsers(const FixtureIndex &index, const ChainUser &chain,
             FullyGuarded &guarded)
{
    guarded.bump();
    return static_cast<int>(index.byName.size()) +
           (chain.pair != nullptr ? 1 : 0);
}
