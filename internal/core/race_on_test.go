//go:build race

package core_test

// raceEnabled reports whether the race detector instruments this build;
// allocation counts are meaningless under it (sync.Pool drops a share of
// what is put back), so allocation guards skip themselves.
const raceEnabled = true
