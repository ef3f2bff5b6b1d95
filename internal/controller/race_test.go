//go:build race

package controller

// raceEnabled reports a -race build, under which sync.Pool drops a
// random share of its puts on purpose.
const raceEnabled = true
