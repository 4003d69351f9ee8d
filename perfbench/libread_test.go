package main

import "testing"

// TestLibReadCountsRepeat builds the lib-read index twice from one seed
// and requires the per-query node reads and distance computations of
// the traced run's pool pass to repeat exactly, with every answer
// matching the oracle.
func TestLibReadCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two full-size indexes")
	}
	var runs [2]poolCostsResult
	for i := range runs {
		in, ix, _, err := libSetup(datasetN, 7)
		if err != nil {
			t.Fatal(err)
		}
		radius := ix.ExpectedNNDistance(nnK)
		orc := buildOracle(in, radius, nnK)
		rep := newReport()
		runs[i], err = poolCosts(ix, len(in.pool), func(kind opKind, qi int) (bool, error) {
			return libQuery(ix, in, orc, radius, kind, qi)
		}, rep)
		if err != nil {
			t.Fatal(err)
		}
		if rep.wrong != 0 {
			t.Fatalf("run %d: %d wrong answers", i, rep.wrong)
		}
	}
	if runs[0] != runs[1] {
		t.Fatalf("counts differ across runs with one seed: %+v vs %+v", runs[0], runs[1])
	}
	if runs[0].rangeNodes == 0 || runs[0].nnDists == 0 {
		t.Fatalf("pool pass counted nothing: %+v", runs[0])
	}
}
