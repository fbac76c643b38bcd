// Fixture: in src/, including a project header nothing of which is
// used is a blocking include-graph finding; the used one is fine.
#include "core/unordered_decl_bad.h"
#include "sim/lock_annotation_bad.h"

int
fixtureIndexSize(const FixtureIndex &index)
{
    return static_cast<int>(index.byName.size());
}
