//go:build !race

package searchtree

const raceEnabled = false
