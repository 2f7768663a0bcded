//go:build !race

package raid5

const raceEnabled = false
