package layout

// RaceEnabled lets the external test package (decoder_test.go) skip its
// allocation pins under the race detector.
const RaceEnabled = raceEnabled
