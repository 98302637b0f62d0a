package verify

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"noctest/internal/core"
	"noctest/internal/noc"
	"noctest/internal/plan"
	"noctest/internal/socgen"
)

// tier1Config sizes a sweep for the regular test run: small systems,
// generous mesh slack (so most exclusive plans are wire-replayable) and
// modest pattern counts keep the whole sweep in low single-digit
// seconds.
func tier1Config() Config {
	return Config{
		Scenarios: 25,
		Seed:      1,
		Params: socgen.ScenarioParams{
			MaxCores:  12,
			MeshSlack: 3,
			SoC:       socgen.Params{MaxPatterns: 120},
		},
	}
}

// TestSweepAllOraclesPass is the package's deterministic seeded sweep:
// every oracle must hold on every drawn scenario, the lower bound must
// be attained within a finite gap everywhere, and the embedded
// benchmarks must come back with finite gap records.
func TestSweepAllOraclesPass(t *testing.T) {
	sum, err := Sweep(context.Background(), tier1Config())
	if err != nil {
		t.Fatal(err)
	}
	if n := sum.Failed(); n != 0 {
		t.Fatalf("%d oracle violations:\n%+v", n, sum.Failures)
	}
	if sum.WorstGap < 1 {
		t.Errorf("worst lower-bound gap %g below 1: the bound cannot exceed a valid makespan", sum.WorstGap)
	}
	stats := make(map[string]OracleStat)
	for _, o := range sum.Oracles {
		stats[o.Name] = o
	}
	for _, name := range oracleNames {
		if stats[name].Checked == 0 {
			t.Errorf("oracle %s never ran", name)
		}
	}
	if len(sum.BenchmarkGaps) != 3 {
		t.Fatalf("want 3 benchmark gap records, got %+v", sum.BenchmarkGaps)
	}
	for _, g := range sum.BenchmarkGaps {
		if g.LowerBound < 1 || g.Makespan < g.LowerBound {
			t.Errorf("%s: implausible gap record %+v", g.Benchmark, g)
		}
		if g.Gap < 1 || g.Gap > 100 {
			t.Errorf("%s: gap %g not finite-and-sane", g.Benchmark, g.Gap)
		}
	}
}

// TestSweepDeterministic pins the whole summary to its seed: two runs
// must serialise byte-identically, so CI can diff sweep outputs.
func TestSweepDeterministic(t *testing.T) {
	cfg := tier1Config()
	cfg.Scenarios = 8
	cfg.SkipBenchmarks = true
	render := func() []byte {
		t.Helper()
		sum, err := Sweep(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := sum.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Errorf("same seed produced different summaries:\n%s\nvs\n%s", a, b)
	}
}

// TestSweepHonoursContext checks cancellation surfaces as an error, not
// a partial summary.
func TestSweepHonoursContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Sweep(ctx, tier1Config()); err == nil {
		t.Error("cancelled sweep returned no error")
	}
}

// TestWireReplayableGate exercises the endpoint-disjointness predicate
// directly: overlapping tests sharing a stream endpoint tile are not
// wire-checkable, disjoint ones are.
func TestWireReplayableGate(t *testing.T) {
	path := func(cs ...noc.Coord) []noc.Coord { return cs }
	entry := func(id, start, end int, in, out []noc.Coord) plan.Entry {
		return plan.Entry{CoreID: id, Start: start, End: end, PathIn: in, PathOut: out}
	}
	a := entry(1, 0, 100,
		path(noc.Coord{X: 0, Y: 0}, noc.Coord{X: 1, Y: 0}),
		path(noc.Coord{X: 1, Y: 0}, noc.Coord{X: 2, Y: 0}))
	disjoint := entry(2, 50, 150,
		path(noc.Coord{X: 0, Y: 2}, noc.Coord{X: 1, Y: 2}),
		path(noc.Coord{X: 1, Y: 2}, noc.Coord{X: 2, Y: 2}))
	sharedSrc := entry(3, 50, 150,
		path(noc.Coord{X: 0, Y: 0}, noc.Coord{X: 0, Y: 1}),
		path(noc.Coord{X: 0, Y: 1}, noc.Coord{X: 0, Y: 2}))
	later := entry(4, 100, 200,
		path(noc.Coord{X: 0, Y: 0}, noc.Coord{X: 1, Y: 0}),
		path(noc.Coord{X: 1, Y: 0}, noc.Coord{X: 2, Y: 0}))

	if !wireReplayable(&plan.Plan{Entries: []plan.Entry{a, disjoint}}) {
		t.Error("endpoint-disjoint concurrent tests reported unreplayable")
	}
	if wireReplayable(&plan.Plan{Entries: []plan.Entry{a, sharedSrc}}) {
		t.Error("concurrent tests sharing a source tile reported replayable")
	}
	if !wireReplayable(&plan.Plan{Entries: []plan.Entry{a, later}}) {
		t.Error("non-overlapping tests sharing tiles reported unreplayable")
	}
	selfCross := entry(5, 0, 100,
		path(noc.Coord{X: 0, Y: 0}, noc.Coord{X: 1, Y: 0}),
		path(noc.Coord{X: 1, Y: 0}, noc.Coord{X: 0, Y: 0}, noc.Coord{X: 1, Y: 0}, noc.Coord{X: 2, Y: 0}))
	if wireReplayable(&plan.Plan{Entries: []plan.Entry{selfCross}}) {
		t.Error("test whose response path re-crosses its stimulus channel reported replayable")
	}
}

// TestShrunkCorpusPasses replays every committed reproduction under
// testdata/shrunk: once a failure is fixed (or was injected, as the
// committed example's was) its repro must pass all oracles, so the
// corpus doubles as a regression suite.
func TestShrunkCorpusPasses(t *testing.T) {
	dir := filepath.Join("..", "..", "testdata", "shrunk")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("shrunk corpus missing: %v", err)
	}
	found := 0
	for _, ent := range entries {
		if ent.IsDir() || !strings.HasSuffix(ent.Name(), ".soc") {
			continue
		}
		found++
		t.Run(ent.Name(), func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
			if err != nil {
				t.Fatal(err)
			}
			sc, err := socgen.ParseScenario(string(data))
			if err != nil {
				t.Fatal(err)
			}
			rep, err := Engine{}.Check(context.Background(), sc)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failed() {
				t.Errorf("committed repro still fails: %+v", rep.Failures)
			}
		})
	}
	if found == 0 {
		t.Error("no .soc files in the shrunk corpus")
	}
}

// TestIdentityOraclesCatchFabricDivergence checks both halves of the
// identity construction: the identities hold on a healthy engine, and
// the quantities they compare really are sensitive to fabric
// divergence — a genuinely wrapping torus must produce a different
// deterministic plan than the mesh, so a regression that made the
// comparison vacuous (BuildOn ignoring its fabric, or the oracle
// comparing the mesh against itself) cannot stay green.
func TestIdentityOraclesCatchFabricDivergence(t *testing.T) {
	sc := socgen.NewScenario(5, socgen.ScenarioParams{MaxCores: 8, SoC: socgen.Params{MaxPatterns: 60}})
	errs, err := (Engine{}).identityChecks(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, oracle := range []string{"mesh-torus-identity", "mesh-degraded-identity"} {
		if errs[oracle] != nil {
			t.Errorf("%s violated on healthy engine: %v", oracle, errs[oracle])
		}
	}

	// Negative half: rebuild the same scenario on a really wrapping
	// torus and run exactly the comparison the oracle runs. The
	// scenario's tester ports sit at opposite corners, so wrap channels
	// shorten their routes and the deterministic plans must differ.
	meshSys, err := sc.WithTopology("mesh", 0).Build()
	if err != nil {
		t.Fatal(err)
	}
	w, h := meshSys.Net.Topo.Dims()
	if w < 3 && h < 3 {
		t.Fatalf("test premise broken: %dx%d grid cannot wrap", w, h)
	}
	torusSys, err := sc.BuildOn(noc.Torus{Width: w, Height: h})
	if err != nil {
		t.Fatal(err)
	}
	mMesh, err := core.Compile(meshSys, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mTorus, err := core.Compile(torusSys, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pm, err := mMesh.Plan(context.Background(), core.GreedyFirstAvailable, mMesh.DefaultOrder(), "identity")
	if err != nil {
		t.Fatal(err)
	}
	pt, err := mTorus.Plan(context.Background(), core.GreedyFirstAvailable, mTorus.DefaultOrder(), "identity")
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(pm.Entries, pt.Entries) {
		t.Error("wrapping torus produced the mesh's exact plan: the identity comparison could not catch real divergence")
	}
}

// TestCheckCoversAllFabricRegimes runs one full scenario check and
// asserts the cross-fabric regimes scheduled: a mesh-drawn scenario
// must also compile and schedule under the torus and degraded regimes.
func TestCheckCoversAllFabricRegimes(t *testing.T) {
	sc := socgen.NewScenario(3, socgen.ScenarioParams{
		MaxCores: 8, Topology: "mesh", SoC: socgen.Params{MaxPatterns: 60},
	})
	rep, err := Engine{}.Check(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("healthy scenario failed: %+v", rep.Failures)
	}
	for _, reg := range []string{"base", "torus", "degraded"} {
		if _, ok := rep.Gaps[reg]; !ok {
			t.Errorf("regime %s produced no gap record (regimes run: %v)", reg, rep.Gaps)
		}
	}
	if rep.Checked["mesh-torus-identity"] != 1 || rep.Checked["mesh-degraded-identity"] != 1 {
		t.Errorf("identity oracles not checked once each: %v", rep.Checked)
	}
}

// TestSweepTopologyMatrix forces each fabric kind through a small
// sweep, mirroring the CI matrix: every kind must come back clean and
// the drawn scenarios must actually carry the forced kind.
func TestSweepTopologyMatrix(t *testing.T) {
	for _, kind := range []string{"mesh", "torus", "degraded"} {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			cfg := tier1Config()
			cfg.Scenarios = 6
			cfg.SkipBenchmarks = true
			cfg.Params.Topology = kind
			sum, err := Sweep(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if n := sum.Failed(); n != 0 {
				t.Fatalf("%d oracle violations under forced %s fabric:\n%+v", n, kind, sum.Failures)
			}
			sc := socgen.NewScenario(scenarioSeed(cfg.Seed, 0), cfg.Params)
			if sc.Topology != kind {
				t.Errorf("forced %s drew %q", kind, sc.Topology)
			}
		})
	}
}

// TestCheckPreemptiveRegime runs one full check on a forced-preemptive
// scenario and asserts the preemption layer engaged end to end: the
// preemptive regime produced a gap record against the halfpower floor,
// the dominance oracle compared the two regimes (and held, with a
// non-negative improvement), and the single-segment identity ran.
func TestCheckPreemptiveRegime(t *testing.T) {
	sc := socgen.NewScenario(3, socgen.ScenarioParams{
		MaxCores: 8, Preemption: "preemptive", SoC: socgen.Params{MaxPatterns: 60},
	})
	if sc.MaxSegments < 2 {
		t.Fatalf("test premise broken: forced preemptive drew cap %d", sc.MaxSegments)
	}
	rep, err := Engine{}.Check(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("healthy preemptive scenario failed: %+v", rep.Failures)
	}
	if _, ok := rep.Gaps["preemptive"]; !ok {
		t.Errorf("preemptive regime produced no gap record (regimes run: %v)", rep.Gaps)
	}
	if rep.Checked["preemption-dominance"] != 1 || rep.Checked["single-segment-identity"] != 1 {
		t.Errorf("preemption oracles not checked once each: %v", rep.Checked)
	}
	if !rep.PreemptionChecked {
		t.Error("preemption delta not recorded despite both regimes scheduling")
	}
	if rep.PreemptionDelta < 0 {
		t.Errorf("preemption worsened the makespan by %d cycles", -rep.PreemptionDelta)
	}
}

// TestSweepPreemptionMatrix forces each scheduling mode through a small
// sweep, mirroring the CI matrix: both must come back clean and the
// drawn scenarios must actually carry the forced mode.
func TestSweepPreemptionMatrix(t *testing.T) {
	for _, mode := range []string{"plain", "preemptive"} {
		mode := mode
		t.Run(mode, func(t *testing.T) {
			cfg := tier1Config()
			cfg.Scenarios = 6
			cfg.SkipBenchmarks = true
			cfg.Params.Preemption = mode
			sum, err := Sweep(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if n := sum.Failed(); n != 0 {
				t.Fatalf("%d oracle violations under forced %s mode:\n%+v", n, mode, sum.Failures)
			}
			sc := socgen.NewScenario(scenarioSeed(cfg.Seed, 0), cfg.Params)
			if (sc.MaxSegments > 0) != (mode == "preemptive") {
				t.Errorf("forced %s drew segment cap %d", mode, sc.MaxSegments)
			}
		})
	}
}

// misScored reports its list rule's order one cycle worse than it is.
// It never wins the race, so the portfolio never builds its order; only
// an oracle that builds every member's order can notice the lie.
type misScored struct{ core.ListScheduler }

func (misScored) Name() string { return "mis-scored" }

func (s misScored) Score(ctx context.Context, m *core.Model, inc *core.Incumbent) (core.Scored, error) {
	sc, err := s.ListScheduler.Score(ctx, m, inc)
	sc.Makespan++
	return sc, err
}

// TestMemberPlansOracleCatchesMisScoredMember proves the member-plans
// oracle has teeth: a losing member whose score disagrees with its own
// plan is flagged on every regime, while the same portfolio without it
// passes.
func TestMemberPlansOracleCatchesMisScoredMember(t *testing.T) {
	ctx := context.Background()
	rule := core.ListScheduler{Variant: core.LookaheadFastestFinish, Priority: core.ProcessorsFirst}
	sc := socgen.NewScenario(11, socgen.ScenarioParams{MinCores: 6, MaxCores: 10})

	healthy := Engine{Portfolio: func(int64) []core.Scheduler { return []core.Scheduler{rule} }}
	rep, err := healthy.Check(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Checked["member-plans"] == 0 {
		t.Fatal("member-plans oracle never ran")
	}
	for _, f := range rep.Failures {
		if f.Oracle == "member-plans" {
			t.Fatalf("member-plans violated on a healthy portfolio: %+v", f)
		}
	}

	broken := Engine{Portfolio: func(int64) []core.Scheduler { return []core.Scheduler{rule, misScored{rule}} }}
	rep, err = broken.Check(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	caught := 0
	for _, f := range rep.Failures {
		if f.Oracle == "member-plans" && strings.Contains(f.Error, "mis-scored") {
			caught++
		}
	}
	if caught == 0 || caught != rep.Checked["member-plans"] {
		t.Errorf("mis-scored member caught on %d of %d regimes, want every one: %+v", caught, rep.Checked["member-plans"], rep.Failures)
	}
}
