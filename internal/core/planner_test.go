package core

import (
	"math/rand"
	"testing"

	"pushpull/internal/sparse"
)

func TestPlannerCostModelBasics(t *testing.T) {
	// Tiny frontier on a big graph: push wins outright.
	p := DecideDirection(PlanInput{
		NNZ: 1, N: 10000, OutRows: 10000,
		PushEdges: 20, AvgDeg: 20, MaskAllowFrac: 1,
	}, nil)
	if p.Dir != Push || p.Rule != RuleCostModel {
		t.Fatalf("tiny frontier: %+v", p)
	}
	if p.PushCost >= p.PullCost {
		t.Fatalf("tiny frontier costs inverted: push %g pull %g", p.PushCost, p.PullCost)
	}

	// Near-full frontier: the merge's log factor makes pull cheaper.
	p = DecideDirection(PlanInput{
		NNZ: 9000, N: 10000, OutRows: 10000,
		PushEdges: 180000, AvgDeg: 20, MaskAllowFrac: 1,
	}, nil)
	if p.Dir != Pull {
		t.Fatalf("dense frontier should pull: %+v", p)
	}

	// The same dense frontier with a nearly-exhausted mask: pull's work
	// collapses with the allow fraction and push wins again.
	p = DecideDirection(PlanInput{
		NNZ: 9000, N: 10000, OutRows: 10000,
		PushEdges: 18000, AvgDeg: 20, MaskAllowFrac: 0.001,
	}, nil)
	if p.PullCost >= p.PushCost {
		t.Fatalf("mask discount missing: push %g pull %g", p.PushCost, p.PullCost)
	}
}

// kronLevel3 is the planner's evidence at level 3 of a default BFS on the
// scale-16 Graph500 RMAT (edge factor 16, undirected): 15160 vertices
// visited, 50376 rows left for the masked pull to probe against the
// word-packed visited set, and a push gathering about 905k edges into a
// frontier of 30703.
func kronLevel3() PlanInput {
	const n, allowed = 65536, 50376
	return PlanInput{
		NNZ: 30703, N: n, OutRows: n,
		PushEdges: 905_000, AvgDeg: 27.8,
		MaskAllowFrac: float64(allowed) / n,
		PullPop:       15160,
		InKind:        KindBitset,
	}
}

// TestPlannerPricesPullEarlyExit: with the pull operand's population set,
// each allowed row costs min(d̄, n/pop) probes, and the big kron level
// plans pull under the unit and a calibrated model alike — also from a
// planner primed on push, since the frontier is growing.
func TestPlannerPricesPullEarlyExit(t *testing.T) {
	in := kronLevel3()
	if got, want := PullProbes(in.AvgDeg, in.N, in.PullPop), 65536.0/15160; got != want {
		t.Fatalf("probes per row = %v, want n/pop = %v", got, want)
	}
	for _, m := range []CostModel{{}, balancedModel()} {
		in := in
		in.Model = m
		if p := DecideDirection(in, nil); p.Dir != Pull {
			t.Errorf("calibrated=%v: stateless plan %v, push %g, pull %g; want pull", m.Calibrated(), p.Dir, p.PushCost, p.PullCost)
		}
		st := PlanState{PrevDir: Push, PrevNNZ: 4000, Primed: true}
		if p := DecideDirection(in, &st); p.Dir != Pull {
			t.Errorf("calibrated=%v: plan after a push level %v, push %g, pull %g; want pull", m.Calibrated(), p.Dir, p.PushCost, p.PullCost)
		}
	}

	// Level 3 from another source of the same graph (18377 frontier
	// vertices gathering 510210 edges against 18455 visited): pricing whole
	// rows pushed it, in 18.8 ms against 0.68 ms for the pull on a 2-vCPU
	// VM.
	lvl := PlanInput{
		NNZ: 18377, N: 65536, OutRows: 65536,
		PushEdges: 510_210, AvgDeg: 1819888.0 / 65536,
		MaskAllowFrac: 47081.0 / 65536,
		InKind:        KindBitset,
	}
	if p := DecideDirection(lvl, nil); p.Dir != Push {
		t.Fatalf("whole-row pricing: %v (push %g, pull %g), the level this pricing used to push", p.Dir, p.PushCost, p.PullCost)
	}
	lvl.PullPop = 18455
	if p := DecideDirection(lvl, nil); p.Dir != Pull {
		t.Fatalf("early-exit pricing: %v (push %g, pull %g), want pull", p.Dir, p.PushCost, p.PullCost)
	}
}

// TestPlannerZeroPopKeepsWholeRowPrice: PullPop 0 (a kernel that cannot
// stop early) must reproduce the whole-row pull price bit for bit, and a
// population never makes a row dearer than its full degree.
func TestPlannerZeroPopKeepsWholeRowPrice(t *testing.T) {
	in := kronLevel3()
	in.PullPop = 0
	allow := in.MaskAllowFrac
	if p := DecideDirection(in, nil); p.PullCost != float64(in.OutRows)*in.AvgDeg*allow {
		t.Errorf("unit pull cost %v, want %v", p.PullCost, float64(in.OutRows)*in.AvgDeg*allow)
	}
	m := balancedModel()
	in.Model = m
	rows := float64(in.OutRows) * allow
	if p, want := DecideDirection(in, nil), m.SetupNs+rows*(m.RowNs+in.AvgDeg*m.ProbeWordNs); p.PullCost != want {
		t.Errorf("calibrated pull cost %v, want %v", p.PullCost, want)
	}
	for _, pop := range []int{0, -1} {
		if got := PullProbes(27.8, 65536, pop); got != 27.8 {
			t.Errorf("PullProbes(pop=%d) = %v, want the full degree", pop, got)
		}
	}
	if got := PullProbes(27.8, 65536, 10); got != 27.8 {
		t.Errorf("sparse operand: %v probes per row, want capped at the degree", got)
	}
	if got := PullProbes(27.8, 65536, 65536); got != 1 {
		t.Errorf("full operand: %v probes per row, want 1", got)
	}
}

func TestPlannerEstimatesPushEdgesWhenUnknown(t *testing.T) {
	p := DecideDirection(PlanInput{
		NNZ: 100, N: 1000, OutRows: 1000,
		PushEdges: -1, AvgDeg: 8, MaskAllowFrac: 1,
	}, nil)
	if p.PushCost <= 0 {
		t.Fatalf("estimated push cost missing: %+v", p)
	}
}

func TestPlannerHysteresisTrendGate(t *testing.T) {
	var st PlanState
	in := PlanInput{N: 1000, OutRows: 1000, AvgDeg: 10, MaskAllowFrac: 1}

	// Prime at push with a small frontier.
	in.NNZ, in.PushEdges = 10, 100
	if p := DecideDirection(in, &st); p.Dir != Push {
		t.Fatalf("priming decision: %+v", p)
	}
	// A *shrinking* frontier must not switch push→pull even if pull's
	// estimate momentarily undercuts (growing gate).
	in.NNZ, in.PushEdges = 5, 2_000_000
	p := DecideDirection(in, &st)
	if p.Dir != Push {
		t.Fatalf("shrinking frontier flipped to pull: %+v", p)
	}
	if p.Growing || !p.Shrinking {
		t.Fatalf("trend flags wrong: %+v", p)
	}
	// Growing past the crossover switches.
	in.NNZ, in.PushEdges = 600, 6000*3
	p = DecideDirection(in, &st)
	if p.Dir != Pull || !p.Growing {
		t.Fatalf("growing frontier should pull: %+v", p)
	}
	// And a growing frontier must not bounce pull→push (shrinking gate).
	in.NNZ, in.PushEdges = 700, 70
	if p := DecideDirection(in, &st); p.Dir != Pull {
		t.Fatalf("growing frontier bounced back to push: %+v", p)
	}

	st.Reset()
	if st.Primed {
		t.Fatal("Reset left state primed")
	}
}

func TestPlannerLegacySwitchPointRule(t *testing.T) {
	var st PlanState
	in := PlanInput{N: 1000, OutRows: 1000, AvgDeg: 10, MaskAllowFrac: 1, SwitchPoint: 0.01}

	in.NNZ, in.PushEdges = 5, 50
	if p := DecideDirection(in, &st); p.Dir != Push || p.Rule != RuleSwitchPoint {
		t.Fatalf("ratio rule: %+v", p)
	}
	in.NNZ, in.PushEdges = 50, 500
	if p := DecideDirection(in, &st); p.Dir != Pull {
		t.Fatalf("5%% growing should pull under the ratio rule: %+v", p)
	}
	in.NNZ, in.PushEdges = 5, 50
	if p := DecideDirection(in, &st); p.Dir != Push {
		t.Fatalf("0.5%% shrinking should push under the ratio rule: %+v", p)
	}
}

func TestPlannerForcedRecordsCosts(t *testing.T) {
	f := Pull
	p := DecideDirection(PlanInput{
		NNZ: 1, N: 1000, OutRows: 1000, PushEdges: 3, AvgDeg: 10,
		MaskAllowFrac: 1, Force: &f,
	}, nil)
	if p.Dir != Pull || p.Rule != RuleForced {
		t.Fatalf("force ignored: %+v", p)
	}
	if p.PushCost <= 0 || p.PullCost <= 0 {
		t.Fatalf("forced plan lost its cost estimates: %+v", p)
	}
}

func TestPlannerBitmapOutputAdvice(t *testing.T) {
	// Gathered edges ≥ a quarter of the output rows → scatter, not sort.
	p := DecideDirection(PlanInput{
		NNZ: 100, N: 1000, OutRows: 1000, PushEdges: 400, AvgDeg: 4, MaskAllowFrac: 1,
	}, nil)
	if p.Dir == Push && !p.PushOutBitmap {
		t.Fatalf("dense push output should advise bitmap: %+v", p)
	}
	p = DecideDirection(PlanInput{
		NNZ: 3, N: 1000, OutRows: 1000, PushEdges: 12, AvgDeg: 4, MaskAllowFrac: 1,
	}, nil)
	if p.PushOutBitmap {
		t.Fatalf("sparse push output should stay a sorted list: %+v", p)
	}
}

// TestColMxvBitmapMatchesSparsePath cross-checks the sort-free scatter
// kernel against the radix pipeline for every view kind and mask shape.
func TestColMxvBitmapMatchesSparsePath(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	sr := plusTimes()
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(50)
		g := randCSR(rng, n, n, 0.2)
		cscG := sparse.Transpose(g)
		uVal, uPresent := randVector(rng, n, 0.4)
		uInd, uSparse := denseToSparse(uVal, uPresent)
		maskBits := make([]bool, n)
		for i := range maskBits {
			maskBits[i] = rng.Intn(2) == 0
		}
		for _, masked := range []bool{false, true} {
			for _, scmp := range []bool{false, true} {
				mask := MaskView{Bits: maskBits, Scmp: scmp}
				for _, so := range []bool{false, true} {
					opts := Opts{StructureOnly: so}
					views := []VecView[float64]{
						SparseVec(n, uInd, uSparse),
						bitmapView(uVal, uPresent),
					}
					for _, uv := range views {
						var wantInd []uint32
						var wantVal []float64
						if masked {
							wantInd, wantVal = ColMaskedMxv(cscG, uv, mask, sr, opts)
						} else {
							wantInd, wantVal = ColMxv(cscG, uv, sr, opts)
						}
						wVal := make([]float64, n)
						wPresent := make([]bool, n)
						nvals := ColMxvBitmap(wVal, wPresent, cscG, uv, mask, masked, sr, opts)
						if nvals != len(wantInd) {
							t.Fatalf("trial %d masked=%v scmp=%v so=%v %v: nvals %d want %d",
								trial, masked, scmp, so, uv.Kind, nvals, len(wantInd))
						}
						gotCount := 0
						for i := range wPresent {
							if wPresent[i] {
								gotCount++
							}
						}
						if gotCount != nvals {
							t.Fatalf("trial %d: present bits %d disagree with nvals %d", trial, gotCount, nvals)
						}
						for k, idx := range wantInd {
							if !wPresent[idx] {
								t.Fatalf("trial %d %v: missing output at %d", trial, uv.Kind, idx)
							}
							if !close(wVal[idx], wantVal[k]) {
								t.Fatalf("trial %d %v: w[%d]=%g want %g", trial, uv.Kind, idx, wVal[idx], wantVal[k])
							}
						}
					}
				}
			}
		}
	}
}

func TestVecViewConstructors(t *testing.T) {
	sv := SparseVec(10, []uint32{1, 5}, []float64{2, 3})
	if sv.Kind != KindSparse || sv.NVals != 2 || sv.N != 10 {
		t.Fatalf("sparse view: %+v", sv)
	}
	bv := BitmapVec([]float64{0, 2}, []bool{false, true}, 1)
	if bv.Kind != KindBitmap || bv.N != 2 || bv.NVals != 1 {
		t.Fatalf("bitmap view: %+v", bv)
	}
	dv := DenseVec([]float64{1, 2, 3})
	if dv.Kind != KindDense || dv.NVals != 3 || dv.Present != nil {
		t.Fatalf("dense view: %+v", dv)
	}
	if KindSparse.String() != "sparse" || KindBitmap.String() != "bitmap" || KindDense.String() != "dense" {
		t.Fatal("VecKind.String mismatch")
	}
}

// TestRowMxvDenseViewMatchesBitmap pins the probe-free dense fast path
// against the bitmap path on a full input.
func TestRowMxvDenseViewMatchesBitmap(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 15; trial++ {
		n := 1 + rng.Intn(40)
		g := randCSR(rng, n, n, 0.2)
		uVal := make([]float64, n)
		uPresent := make([]bool, n)
		for i := range uVal {
			uVal[i] = rng.Float64()
			uPresent[i] = true
		}
		for _, sr := range []SR[float64]{plusTimes(), minPlus()} {
			w1 := make([]float64, n)
			p1 := make([]bool, n)
			nv1 := RowMxv(w1, p1, g, BitmapVec(uVal, uPresent, n), sr, Opts{})
			w2 := make([]float64, n)
			p2 := make([]bool, n)
			nv2 := RowMxv(w2, p2, g, DenseVec(uVal), sr, Opts{})
			if nv1 != nv2 {
				t.Fatalf("trial %d: nvals %d vs %d", trial, nv1, nv2)
			}
			compareDense(t, "dense-view", w1, p1, w2, p2)
		}
	}
}
