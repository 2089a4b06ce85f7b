//go:build !race

package femtree

const raceEnabled = false
