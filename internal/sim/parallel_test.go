package sim

import (
	"math/rand"
	"testing"

	"ndetect/internal/fault"
)

func TestBlockRangesCoverEveryWord(t *testing.T) {
	for _, tc := range []struct{ nWords, blockWords int }{
		{1, minBlockWords}, {63, 64}, {64, 64}, {65, 64},
		{1 << 14, 256}, {minBlockWords*3 + 17, minBlockWords},
	} {
		blocks := blockRanges(tc.nWords, tc.blockWords)
		if len(blocks) == 0 {
			t.Fatalf("nWords=%d: no blocks", tc.nWords)
		}
		at := 0
		for _, b := range blocks {
			if b[0] != at || b[1] <= b[0] {
				t.Fatalf("nWords=%d: blocks not contiguous: %v", tc.nWords, blocks)
			}
			if b[1]-b[0] > tc.blockWords {
				t.Fatalf("nWords=%d: oversized block %v", tc.nWords, b)
			}
			at = b[1]
		}
		if at != tc.nWords {
			t.Fatalf("blocks cover [0,%d), want [0,%d)", at, tc.nWords)
		}
	}
}

func TestBlockWordsForStaysClamped(t *testing.T) {
	for _, tc := range []struct{ nWords, workers int }{
		{1, 1}, {128, 8}, {1 << 14, 1}, {1 << 22, 4}, {1 << 10, 64},
	} {
		bw := blockWordsFor(tc.nWords, tc.workers)
		if bw < minBlockWords || bw > maxBlockWords {
			t.Fatalf("blockWordsFor(%d, %d) = %d outside [%d, %d]",
				tc.nWords, tc.workers, bw, minBlockWords, maxBlockWords)
		}
	}
}

func TestParallelForVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 32} {
		hits := make([]int, 1000)
		ParallelFor(workers, len(hits), func(i int) { hits[i]++ })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, h)
			}
		}
	}
}

// TestRunWorkersDeterministic checks the central contract of the streaming
// engine: block-parallel T-set construction produces byte-identical results
// for every worker count, on a circuit large enough (16 inputs → 1024
// words) that block sharding actually engages.
func TestRunWorkersDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	c := randomCircuit(t, rng, 16, 60)

	e1, err := RunWorkers(c, 1)
	if err != nil {
		t.Fatalf("RunWorkers(1): %v", err)
	}
	for _, workers := range []int{2, 8} {
		eN, err := RunWorkers(c, workers)
		if err != nil {
			t.Fatalf("RunWorkers(%d): %v", workers, err)
		}
		faults := fault.CollapseStuckAt(c)
		t1 := e1.StuckAtTSets(faults)
		tN := eN.StuckAtTSets(faults)
		for i := range t1 {
			if !t1[i].Equal(tN[i]) {
				t.Fatalf("workers=%d: stuck-at T-set %d differs from serial", workers, i)
			}
		}

		bridges := fault.Bridges(c)
		b1 := e1.BridgeTSets(bridges)
		bN := eN.BridgeTSets(bridges)
		for i := range b1 {
			if !b1[i].Equal(bN[i]) {
				t.Fatalf("workers=%d: bridge T-set %d differs from serial", workers, i)
			}
		}
	}
}

// TestRunMatchesRunWorkersSerial pins the auto worker count to the serial
// reference on the small shared test circuit, where block sharding never
// engages but the fault-level pools do.
func TestRunMatchesRunWorkersSerial(t *testing.T) {
	c := testCircuit(t)
	a, err := RunWorkers(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunWorkers(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.AllStuckAt(c)
	ta, tb := a.StuckAtTSets(faults), b.StuckAtTSets(faults)
	for i, f := range faults {
		if !ta[i].Equal(tb[i]) {
			t.Fatalf("fault %s: RunWorkers(0) and RunWorkers(1) disagree", f.Name(c))
		}
	}
	bridges := fault.Bridges(c)
	ba, bb := a.BridgeTSets(bridges), b.BridgeTSets(bridges)
	for i, g := range bridges {
		if !ba[i].Equal(bb[i]) {
			t.Fatalf("bridge %s: RunWorkers(0) and RunWorkers(1) disagree", g.Name(c))
		}
	}
}
