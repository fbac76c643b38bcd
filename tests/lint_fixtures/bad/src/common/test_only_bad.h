// Fixture: a header only its own .cc includes — nothing else in the
// tree uses it, so test-only fires at its first code line.
#ifndef FIXTURE_TEST_ONLY_BAD_H
#define FIXTURE_TEST_ONLY_BAD_H

int fixtureTestOnly();

#endif // FIXTURE_TEST_ONLY_BAD_H
