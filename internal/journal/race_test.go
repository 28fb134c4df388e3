//go:build race

package journal

// raceEnabled reports that the race detector instruments this build. It
// moves some values to the heap and drops sync.Pool items at random, so
// allocation counts are pinned only without it.
const raceEnabled = true
