//go:build race

package femtree

// raceEnabled reports a -race build, in which sync.Pool drops items at
// random and pooled scratch has to be rebuilt.
const raceEnabled = true
