package layout

// RaceEnabled lets the external test package (decoder_test.go) skip its
// allocation pins under the race detector.
const RaceEnabled = raceEnabled

// PeelDecode is peeling alone on a throwaway decoder — compile the schedule
// for es, run it, strike what it recovered from es — for the tests that hold
// Plan.apply to the reference peeling decoder.
func PeelDecode(code Code, s *Stripe, es ErasureSet) (DecodeStats, error) {
	return NewDecoder(code).Compile(es).apply(s, es)
}
