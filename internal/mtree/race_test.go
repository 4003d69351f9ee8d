//go:build race

package mtree

// raceEnabled reports a -race build. Race builds of sync.Pool drop
// pooled items at random on purpose, so allocation gates cannot hold
// there; the standard library skips its AllocsPerRun tests the same way.
const raceEnabled = true
