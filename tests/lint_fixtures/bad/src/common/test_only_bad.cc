// Fixture: a header's own .cc does not count as a caller.
#include "common/test_only_bad.h"

int
fixtureTestOnly()
{
    return 1;
}
