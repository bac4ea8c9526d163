package adapt

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestWithDefaults(t *testing.T) {
	p := Policy{}.WithDefaults()
	if p.MaxImbalance != DefaultMaxImbalance || p.MaxArrivalSkew != DefaultMaxArrivalSkew ||
		p.MaxScanRegression != DefaultMaxScanRegression || p.MinChurn != DefaultMinChurn ||
		p.MinWindowUsers != DefaultMinWindowUsers {
		t.Fatalf("zero policy did not resolve to defaults: %+v", p)
	}
	q := Policy{MaxImbalance: -1, MinChurn: 7, MaxScanRegression: 0.5}.WithDefaults()
	if q.MaxImbalance != -1 || q.MinChurn != 7 || q.MaxScanRegression != 0.5 {
		t.Fatalf("explicit and disabled values must pass through: %+v", q)
	}
}

// TestEvaluateMatrix walks every trigger, the gates in front of them, and
// the documented evaluation order (imbalance, arrival-skew,
// scan-regression: first exceeded wins).
func TestEvaluateMatrix(t *testing.T) {
	churned := DriftStats{Adds: 40, Removes: 24, Items: 100} // churn 64 >= default MinChurn
	cases := []struct {
		name   string
		p      Policy
		d      DriftStats
		reason string // "" = must not fire
	}{
		{"quiet", Policy{}, DriftStats{}, ""},
		{"imbalance", Policy{}, with(churned, func(d *DriftStats) { d.Imbalance = 2.0 }), "imbalance"},
		{"imbalance-at-threshold", Policy{}, with(churned, func(d *DriftStats) { d.Imbalance = 1.5 }), ""},
		{"imbalance-below-min-churn", Policy{}, DriftStats{Adds: 8, Imbalance: 9}, ""},
		{"imbalance-disabled", Policy{MaxImbalance: -1}, with(churned, func(d *DriftStats) { d.Imbalance = 9 }), ""},
		{"arrival-skew", Policy{}, with(churned, func(d *DriftStats) { d.ArrivalSkew = 0.9 }), "arrival-skew"},
		{"arrival-skew-disabled", Policy{MaxArrivalSkew: -1}, with(churned, func(d *DriftStats) { d.ArrivalSkew = 0.9 }), ""},
		{"order-imbalance-beats-skew", Policy{},
			with(churned, func(d *DriftStats) { d.Imbalance = 9; d.ArrivalSkew = 1 }), "imbalance"},
		{"scan-regression", Policy{},
			DriftStats{BaselineScanPerUser: 100, ScannedSinceBaseline: 100 * 130, UsersSinceBaseline: 100},
			"scan-regression"},
		{"scan-regression-needs-window", Policy{},
			DriftStats{BaselineScanPerUser: 100, ScannedSinceBaseline: 10 * 900, UsersSinceBaseline: 10}, ""},
		{"scan-regression-needs-baseline", Policy{},
			DriftStats{ScannedSinceBaseline: 100 * 900, UsersSinceBaseline: 100}, ""},
		{"scan-regression-under", Policy{},
			DriftStats{BaselineScanPerUser: 100, ScannedSinceBaseline: 100 * 110, UsersSinceBaseline: 100}, ""},
		{"scan-regression-no-churn-gate", Policy{}, // fires even with zero churn
			DriftStats{BaselineScanPerUser: 100, ScannedSinceBaseline: 100 * 200, UsersSinceBaseline: 100},
			"scan-regression"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr, fired := tc.p.Evaluate(tc.d)
			if fired != (tc.reason != "") {
				t.Fatalf("fired=%v trigger=%v, want reason %q", fired, tr, tc.reason)
			}
			if fired && tr.Reason != tc.reason {
				t.Fatalf("fired %q, want %q", tr.Reason, tc.reason)
			}
			if fired && !strings.Contains(tr.String(), tc.reason) {
				t.Fatalf("String() = %q does not name the rule", tr.String())
			}
		})
	}
	if s := (Trigger{}).String(); s != "none" {
		t.Fatalf("zero trigger String() = %q, want none", s)
	}
}

func with(d DriftStats, f func(*DriftStats)) DriftStats {
	f(&d)
	return d
}

func TestDriftStatsDerived(t *testing.T) {
	d := DriftStats{BaselineScanPerUser: 50, ScannedSinceBaseline: 600, UsersSinceBaseline: 10}
	if got := d.ScanPerUser(); got != 60 {
		t.Fatalf("ScanPerUser = %v, want 60", got)
	}
	if got := d.ScanRegression(); got != 0.2 {
		t.Fatalf("ScanRegression = %v, want 0.2", got)
	}
	if got := (DriftStats{}).ScanRegression(); got != 0 {
		t.Fatalf("unlocked baseline regression = %v, want 0", got)
	}
}

// fakeDriver scripts DriftStats answers and records retune dispatches.
type fakeDriver struct {
	mu       sync.Mutex
	stats    DriftStats
	retunes  int
	lastReq  RetuneRequest
	failWith error
}

func (f *fakeDriver) DriftStats() DriftStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

func (f *fakeDriver) Retune(req RetuneRequest) (RetuneResult, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failWith != nil {
		return RetuneResult{}, f.failWith
	}
	f.retunes++
	f.lastReq = req
	f.stats = DriftStats{Items: f.stats.Items, Retunes: f.stats.Retunes + 1} // commit resets drift
	return RetuneResult{Trigger: req.Trigger, OldShards: 4, NewShards: 4}, nil
}

func (f *fakeDriver) set(d DriftStats) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stats = d
}

func TestTunerCheck(t *testing.T) {
	d := &fakeDriver{}
	tn, err := NewTuner(d, Config{Interval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer tn.Close()

	if _, fired, err := tn.Check(); fired || err != nil {
		t.Fatalf("quiet check fired=%v err=%v", fired, err)
	}
	d.set(DriftStats{Adds: 64, Items: 100, Imbalance: 3})
	res, fired, err := tn.Check()
	if err != nil || !fired {
		t.Fatalf("drifted check fired=%v err=%v", fired, err)
	}
	if res.Trigger.Reason != "imbalance" || d.lastReq.Trigger.Reason != "imbalance" {
		t.Fatalf("trigger not threaded through dispatch: res=%v req=%v", res.Trigger, d.lastReq.Trigger)
	}
	// The driver reset its drift on commit; the next check must stay quiet.
	if _, fired, _ := tn.Check(); fired {
		t.Fatal("check fired again after the commit reset drift")
	}
	st := tn.Stats()
	if st.Checks != 3 || st.Triggers != 1 || st.Retunes != 1 || st.Failures != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTunerDisabledAndFailures(t *testing.T) {
	d := &fakeDriver{}
	d.set(DriftStats{Adds: 64, Items: 100, Imbalance: 3})
	lesion, err := NewTuner(d, Config{Interval: -1, Disabled: true})
	if err != nil {
		t.Fatal(err)
	}
	defer lesion.Close()
	if _, fired, err := lesion.Check(); fired || err != nil {
		t.Fatalf("disabled tuner dispatched: fired=%v err=%v", fired, err)
	}
	if st := lesion.Stats(); st.Triggers != 1 || st.Retunes != 0 {
		t.Fatalf("lesion must count triggers without retuning: %+v", st)
	}
	if d.retunes != 0 {
		t.Fatal("lesion tuner reached the driver")
	}

	boom := errors.New("boom")
	d.failWith = boom
	live, err := NewTuner(d, Config{Interval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	if _, fired, err := live.Check(); fired || !errors.Is(err, boom) {
		t.Fatalf("failing dispatch: fired=%v err=%v", fired, err)
	}
	if st := live.Stats(); st.Failures != 1 || !errors.Is(st.LastErr, boom) {
		t.Fatalf("failure not recorded: %+v", st)
	}
}

func TestTunerBackgroundKick(t *testing.T) {
	d := &fakeDriver{}
	d.set(DriftStats{Adds: 64, Items: 100, Imbalance: 3})
	// A long interval isolates the kick path: the test would time out
	// waiting for the ticker.
	tn, err := NewTuner(d, Config{Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer tn.Close()
	tn.Kick()
	deadline := time.Now().Add(5 * time.Second)
	for tn.Stats().Retunes == 0 {
		if time.Now().After(deadline) {
			t.Fatal("kicked background loop never retuned")
		}
		time.Sleep(time.Millisecond)
	}
	tn.Close() // idempotent with the deferred Close
}
