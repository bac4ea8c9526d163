package kmeans

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"optimus/internal/mat"
)

// clusteredPoints builds n points around k well-separated centers.
func clusteredPoints(rng *rand.Rand, n, k, dim int, spread float64) (*mat.Matrix, []int) {
	centers := mat.New(k, dim)
	for i := range centers.Data() {
		centers.Data()[i] = rng.NormFloat64() * 10
	}
	pts := mat.New(n, dim)
	truth := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % k
		truth[i] = c
		row := pts.Row(i)
		for j := 0; j < dim; j++ {
			row[j] = centers.At(c, j) + rng.NormFloat64()*spread
		}
	}
	return pts, truth
}

func TestRunValidation(t *testing.T) {
	pts := mat.New(4, 2)
	if _, err := Run(pts, Config{K: 0}); err == nil {
		t.Fatal("expected error for K=0")
	}
	if _, err := Run(pts, Config{K: 2, Iterations: -1}); err == nil {
		t.Fatal("expected error for negative iterations")
	}
	if _, err := Run(mat.New(0, 2), Config{K: 2}); err == nil {
		t.Fatal("expected error for empty input")
	}
}

func TestRunRecoversSeparatedClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	pts, truth := clusteredPoints(rng, 300, 3, 4, 0.05)
	r, err := Run(pts, Config{K: 3, Iterations: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Every pair in the same true cluster must share an assigned cluster.
	for i := 1; i < len(truth); i++ {
		for j := 0; j < i; j++ {
			same := truth[i] == truth[j]
			got := r.Assign[i] == r.Assign[j]
			if same != got {
				t.Fatalf("points %d,%d: truth same=%v assigned same=%v", i, j, same, got)
			}
		}
	}
}

func TestAssignmentIsNearest(t *testing.T) {
	// Invariant: after Run, every point is assigned to its true nearest
	// centroid (that is what the final assignment pass guarantees).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(80)
		pts := mat.New(n, 3)
		for i := range pts.Data() {
			pts.Data()[i] = rng.NormFloat64()
		}
		r, err := Run(pts, Config{K: 4, Iterations: 2, Seed: seed})
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			got := sqDist(pts.Row(i), r.Centroids.Row(r.Assign[i]))
			for c := 0; c < r.Centroids.Rows(); c++ {
				if sqDist(pts.Row(i), r.Centroids.Row(c)) < got-1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSizesMatchAssignments(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts, _ := clusteredPoints(rng, 120, 4, 3, 1.0)
	r, err := Run(pts, Config{K: 4, Iterations: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 4)
	for _, c := range r.Assign {
		counts[c]++
	}
	total := 0
	for c, want := range counts {
		if r.Sizes[c] != want {
			t.Fatalf("Sizes[%d] = %d, want %d", c, r.Sizes[c], want)
		}
		total += want
	}
	if total != 120 {
		t.Fatalf("assignments cover %d points, want 120", total)
	}
}

func TestMembersPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pts, _ := clusteredPoints(rng, 60, 3, 2, 1.0)
	r, err := Run(pts, Config{K: 3, Iterations: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, 60)
	for c, members := range r.Members() {
		for _, i := range members {
			if seen[i] {
				t.Fatalf("point %d appears in multiple clusters", i)
			}
			seen[i] = true
			if r.Assign[i] != c {
				t.Fatalf("member list disagrees with Assign for point %d", i)
			}
		}
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("point %d missing from member lists", i)
		}
	}
}

func TestDeterminismForFixedSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts, _ := clusteredPoints(rng, 100, 3, 4, 0.5)
	a, err := Run(pts, Config{K: 3, Iterations: 5, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(pts, Config{K: 3, Iterations: 5, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("same seed must give identical assignments")
		}
	}
	if !a.Centroids.Equal(b.Centroids, 0) {
		t.Fatal("same seed must give identical centroids")
	}
}

func TestKLargerThanN(t *testing.T) {
	pts := mat.New(3, 2)
	for i := range pts.Data() {
		pts.Data()[i] = float64(i)
	}
	r, err := Run(pts, Config{K: 10, Iterations: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Centroids.Rows() != 3 {
		t.Fatalf("effective K = %d, want 3", r.Centroids.Rows())
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	pts, _ := clusteredPoints(rng, 600, 5, 8, 0.8)
	serial, err := Run(pts, Config{K: 5, Iterations: 4, Seed: 5, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(pts, Config{K: 5, Iterations: 4, Seed: 5, Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial.Assign {
		if serial.Assign[i] != parallel.Assign[i] {
			t.Fatal("parallel assignment differs from serial")
		}
	}
}

func TestSphericalCentroidsUnitNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pts, _ := clusteredPoints(rng, 200, 4, 6, 0.5)
	r, err := Run(pts, Config{K: 4, Iterations: 5, Seed: 6, Spherical: true})
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < r.Centroids.Rows(); c++ {
		n := mat.Norm(r.Centroids.Row(c))
		if math.Abs(n-1) > 1e-9 {
			t.Fatalf("spherical centroid %d has norm %v, want 1", c, n)
		}
	}
}

func TestSphericalBeatsLloydOnAngles(t *testing.T) {
	// The paper's §III-A premise: spherical clustering optimizes the angular
	// objective directly, so its mean θuc must not be meaningfully worse
	// than Lloyd's. Construct users with very different norms but shared
	// directions, where Lloyd's Euclidean objective is misled.
	rng := rand.New(rand.NewSource(12))
	n, dim := 400, 5
	pts := mat.New(n, dim)
	dirs := mat.New(4, dim)
	for i := range dirs.Data() {
		dirs.Data()[i] = rng.NormFloat64()
	}
	for c := 0; c < 4; c++ {
		mat.Normalize(dirs.Row(c))
	}
	for i := 0; i < n; i++ {
		c := i % 4
		scale := math.Pow(10, rng.Float64()*2) // norms spread over 2 decades
		row := pts.Row(i)
		for j := 0; j < dim; j++ {
			row[j] = (dirs.At(c, j) + rng.NormFloat64()*0.05) * scale
		}
	}
	lloyd, err := Run(pts, Config{K: 4, Iterations: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sph, err := Run(pts, Config{K: 4, Iterations: 8, Seed: 3, Spherical: true})
	if err != nil {
		t.Fatal(err)
	}
	la, sa := MeanAngle(pts, lloyd), MeanAngle(pts, sph)
	if sa > la*1.5 {
		t.Fatalf("spherical mean angle %v should not be much worse than lloyd %v", sa, la)
	}
}

func TestMaxAngleIsUpperBound(t *testing.T) {
	// θb must bound every member's angle — the property Equation 3 needs.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pts, _ := clusteredPoints(rng, 50+rng.Intn(100), 3, 4, 1.0)
		r, err := Run(pts, Config{K: 3, Iterations: 3, Seed: seed})
		if err != nil {
			return false
		}
		theta := MaxAngle(pts, r)
		for i, c := range r.Assign {
			if mat.Angle(pts.Row(i), r.Centroids.Row(c)) > theta[c]+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAssignOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pts, _ := clusteredPoints(rng, 200, 3, 4, 0.05)
	r, err := Run(pts, Config{K: 3, Iterations: 5, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	// New points drawn near existing data must land on nearest centroids.
	newPts, _ := clusteredPoints(rand.New(rand.NewSource(14)), 50, 3, 4, 0.05)
	got := AssignOnly(newPts, r.Centroids, 2)
	for i := range got {
		best, bestD := 0, math.Inf(1)
		for c := 0; c < r.Centroids.Rows(); c++ {
			if d := sqDist(newPts.Row(i), r.Centroids.Row(c)); d < bestD {
				best, bestD = c, d
			}
		}
		if got[i] != best {
			t.Fatalf("point %d assigned to %d, nearest is %d", i, got[i], best)
		}
	}
}

func TestAssignOnlyDimensionPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected dimension panic")
		}
	}()
	AssignOnly(mat.New(2, 3), mat.New(2, 4), 1)
}

func TestInertiaDecreasesWithIterations(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	pts, _ := clusteredPoints(rng, 300, 5, 6, 2.0)
	r1, err := Run(pts, Config{K: 5, Iterations: 1, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	r10, err := Run(pts, Config{K: 5, Iterations: 10, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if r10.Inertia > r1.Inertia*1.0001 {
		t.Fatalf("inertia after 10 iters (%v) exceeds after 1 iter (%v)", r10.Inertia, r1.Inertia)
	}
}

func TestZeroIterationsStillAssigns(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	pts, _ := clusteredPoints(rng, 40, 2, 3, 0.5)
	r, err := Run(pts, Config{K: 2, Iterations: 0, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Assign) != 40 {
		t.Fatal("zero-iteration run must still assign all points")
	}
}

func TestIdenticalPointsDegenerate(t *testing.T) {
	pts := mat.New(10, 3)
	for i := 0; i < 10; i++ {
		copy(pts.Row(i), []float64{1, 2, 3})
	}
	r, err := Run(pts, Config{K: 3, Iterations: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Inertia > 1e-18 {
		t.Fatalf("identical points should give ~0 inertia, got %v", r.Inertia)
	}
}

// refRun is Run on the non-spherical path with the plain loops as oracle:
// seeding and assignment score one point against one centroid at a time
// through sqDist, and the objective is summed in the same chunks.
func refRun(points *mat.Matrix, cfg Config) *Result {
	n, k := points.Rows(), min(cfg.K, points.Rows())
	rng := rand.New(rand.NewSource(cfg.Seed))
	centroids := mat.New(k, points.Cols())
	copy(centroids.Row(0), points.Row(rng.Intn(n)))
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = sqDist(points.Row(i), centroids.Row(0))
	}
	for c := 1; c < k; c++ {
		var total float64
		for _, d := range dist {
			total += d
		}
		chosen := n - 1
		if total <= 0 {
			chosen = rng.Intn(n)
		} else {
			target, cum := rng.Float64()*total, 0.0
			for i, d := range dist {
				if cum += d; cum >= target {
					chosen = i
					break
				}
			}
		}
		copy(centroids.Row(c), points.Row(chosen))
		for i := range dist {
			if d := sqDist(points.Row(i), centroids.Row(c)); d < dist[i] {
				dist[i] = d
			}
		}
	}
	assign := make([]int, n)
	assignRef := func() float64 {
		var total float64
		for lo := 0; lo < n; lo += assignGrain {
			var obj float64
			for i := lo; i < min(lo+assignGrain, n); i++ {
				best, bestD := 0, math.Inf(1)
				for c := 0; c < k; c++ {
					if d := sqDist(points.Row(i), centroids.Row(c)); d < bestD {
						best, bestD = c, d
					}
				}
				assign[i] = best
				obj += bestD
			}
			total += obj
		}
		return total
	}
	sizes := make([]int, k)
	for range max(cfg.Iterations, 1) {
		assignRef()
		updateCentroids(points, centroids, assign, sizes, rng, false)
	}
	inertia := assignRef()
	return &Result{Centroids: centroids, Assign: assign, Inertia: inertia}
}

// TestRunMatchesScalarReference: Run scores four centroids per pass over a
// point and four points per pass over a new seed, yet its seeding,
// assignments, centroids and inertia are bit-equal to the one-distance-at-a-
// time oracle for every k around the four-way split — NaN coordinates
// included, where the strict < comparisons keep the oracle's choices.
func TestRunMatchesScalarReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, withNaN := range []bool{false, true} {
		for _, k := range []int{1, 3, 4, 5, 8, 9} {
			for _, n := range []int{k, 7, 301, 530} {
				pts, _ := clusteredPoints(rng, n, 3, 6, 2)
				if withNaN {
					pts.Row(rng.Intn(n))[rng.Intn(6)] = math.NaN()
				}
				cfg := Config{K: k, Iterations: 3, Seed: int64(n + k)}
				want := refRun(pts, cfg)
				for _, threads := range []int{1, 3} {
					cfg.Threads = threads
					got, err := Run(pts, cfg)
					if err != nil {
						t.Fatal(err)
					}
					label := func() string {
						return fmt.Sprintf("k=%d n=%d nan=%v threads=%d", k, n, withNaN, threads)
					}
					if math.Float64bits(got.Inertia) != math.Float64bits(want.Inertia) {
						t.Fatalf("%s: inertia %v, want %v", label(), got.Inertia, want.Inertia)
					}
					for i, c := range want.Assign {
						if got.Assign[i] != c {
							t.Fatalf("%s: point %d in cluster %d, want %d", label(), i, got.Assign[i], c)
						}
					}
					for i, v := range want.Centroids.Data() {
						if math.Float64bits(got.Centroids.Data()[i]) != math.Float64bits(v) {
							t.Fatalf("%s: centroid value %d is %v, want %v", label(), i, got.Centroids.Data()[i], v)
						}
					}
				}
			}
		}
	}
}
