// Package kmeans implements the user-clustering substrate MAXIMUS builds on
// (§III-A): Lloyd's k-means with k-means++ seeding, plus the two variants the
// paper discusses — spherical k-means (the angular ideal it compares against)
// and assignment-only placement for dynamically arriving users (§III-E).
//
// The paper's finding, reproduced by the ablation-clustering experiment, is
// that plain k-means approximates the angular objective within a few percent
// while running 2–3× faster, so MAXIMUS defaults to Lloyd's algorithm with a
// small, fixed iteration count (i = 3).
package kmeans

import (
	"fmt"
	"math"
	"math/rand"

	"optimus/internal/mat"
	"optimus/internal/parallel"
)

// Config controls a clustering run.
type Config struct {
	// K is the number of clusters. Required, >= 1.
	K int
	// Iterations is the number of Lloyd iterations after seeding.
	// The paper finds i = 3 sufficient (§III-D).
	Iterations int
	// Spherical switches to spherical k-means: points are compared by cosine
	// dissimilarity and centroids are re-projected onto the unit sphere each
	// iteration. Used only by the clustering ablation.
	Spherical bool
	// Seed feeds the k-means++ initialization. Runs are deterministic for a
	// fixed (Seed, input) pair.
	Seed int64
	// Threads parallelizes the assignment step across points. <=1 is serial.
	Threads int
}

// Result holds a completed clustering.
type Result struct {
	// Centroids is a K×f matrix of cluster centers.
	Centroids *mat.Matrix
	// Assign maps each input row to its centroid index.
	Assign []int
	// Sizes counts members per cluster.
	Sizes []int
	// Inertia is the summed squared Euclidean distance (or, for spherical
	// runs, summed cosine dissimilarity) from points to their centroids
	// after the final iteration.
	Inertia float64
}

// Members returns, for each cluster, the input-row indices assigned to it,
// preserving input order within each cluster.
func (r *Result) Members() [][]int {
	members := make([][]int, r.Centroids.Rows())
	for i, c := range r.Assign {
		members[c] = append(members[c], i)
	}
	return members
}

// Run clusters the rows of points. If the input has fewer rows than K, the
// effective K is reduced to the number of rows (every point its own cluster).
func Run(points *mat.Matrix, cfg Config) (*Result, error) {
	if cfg.K < 1 {
		return nil, fmt.Errorf("kmeans: K must be >= 1, got %d", cfg.K)
	}
	if cfg.Iterations < 0 {
		return nil, fmt.Errorf("kmeans: negative iterations %d", cfg.Iterations)
	}
	n := points.Rows()
	if n == 0 {
		return nil, fmt.Errorf("kmeans: no points")
	}
	k := cfg.K
	if k > n {
		k = n
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	var work *mat.Matrix
	if cfg.Spherical {
		// Spherical k-means operates on directions only.
		work = points.Clone()
		for i := 0; i < n; i++ {
			mat.Normalize(work.Row(i))
		}
	} else {
		work = points
	}

	centroids := seedPlusPlus(work, k, rng)
	assign := make([]int, n)
	sizes := make([]int, k)
	var inertia float64

	iters := cfg.Iterations
	if iters == 0 {
		iters = 1 // at least one assignment pass so Result is coherent
	}
	for it := 0; it < iters; it++ {
		inertia = assignAll(work, centroids, assign, cfg.Threads, cfg.Spherical)
		updateCentroids(work, centroids, assign, sizes, rng, cfg.Spherical)
	}
	// Final assignment against the final centroids.
	inertia = assignAll(work, centroids, assign, cfg.Threads, cfg.Spherical)
	for i := range sizes {
		sizes[i] = 0
	}
	for _, c := range assign {
		sizes[c]++
	}
	return &Result{Centroids: centroids, Assign: assign, Sizes: sizes, Inertia: inertia}, nil
}

// AssignOnly places each row of points with the nearest existing centroid
// (squared Euclidean distance), without moving any centroid. This is the
// §III-E path for new users arriving after the index is built.
func AssignOnly(points, centroids *mat.Matrix, threads int) []int {
	if points.Cols() != centroids.Cols() {
		panic(fmt.Sprintf("kmeans: dimension mismatch %d vs %d", points.Cols(), centroids.Cols()))
	}
	assign := make([]int, points.Rows())
	assignAll(points, centroids, assign, threads, false)
	return assign
}

// seedPlusPlus implements k-means++ seeding: the first centroid is uniform,
// each subsequent one is drawn with probability proportional to the squared
// distance from the nearest centroid chosen so far.
func seedPlusPlus(points *mat.Matrix, k int, rng *rand.Rand) *mat.Matrix {
	n := points.Rows()
	centroids := mat.New(k, points.Cols())
	first := rng.Intn(n)
	copy(centroids.Row(0), points.Row(first))

	dist := make([]float64, n)
	lowerDists(points, centroids.Row(0), dist, true)
	for c := 1; c < k; c++ {
		var total float64
		for _, d := range dist {
			total += d
		}
		var chosen int
		if total <= 0 {
			// All points coincide with existing centroids; fall back to
			// uniform so we still produce k (possibly duplicate) centers.
			chosen = rng.Intn(n)
		} else {
			target := rng.Float64() * total
			var cum float64
			chosen = n - 1
			for i, d := range dist {
				cum += d
				if cum >= target {
					chosen = i
					break
				}
			}
		}
		copy(centroids.Row(c), points.Row(chosen))
		lowerDists(points, centroids.Row(c), dist, false)
	}
	return centroids
}

// lowerDists lowers dist[i] to sqDist(points.Row(i), c) where that is
// smaller — or, with set, stores it — scoring four points per pass over c so
// the four distances' dependent chains overlap. Each is summed in sqDist's
// order, and (c−p)² is (p−c)² to the bit, so dist is what one sqDist per
// point gives, NaN included.
func lowerDists(points *mat.Matrix, c []float64, dist []float64, set bool) {
	lower := func(i int, d float64) {
		if set || d < dist[i] {
			dist[i] = d
		}
	}
	n, i := points.Rows(), 0
	for ; i+4 <= n; i += 4 {
		d0, d1, d2, d3 := sqDist4(c, points.Row(i), points.Row(i+1), points.Row(i+2), points.Row(i+3))
		lower(i, d0)
		lower(i+1, d1)
		lower(i+2, d2)
		lower(i+3, d3)
	}
	for ; i < n; i++ {
		lower(i, sqDist(points.Row(i), c))
	}
}

// assignGrain is the chunk size of the parallel assignment step. The chunk
// decomposition — and therefore the order the per-chunk partial objectives
// are reduced in — depends only on the point count, so the returned inertia
// is bit-identical at every thread count.
const assignGrain = 256

// assignAll assigns every point to its nearest centroid and returns the
// objective value. For spherical mode, "nearest" means highest cosine
// similarity and the objective is summed (1 - cos).
func assignAll(points, centroids *mat.Matrix, assign []int, threads int, spherical bool) float64 {
	n := points.Rows()
	part := make([]float64, parallel.Chunks(n, assignGrain))
	parallel.ForThreads(threads, n, assignGrain, func(lo, hi int) {
		part[parallel.Chunk(lo, assignGrain)] = assignRange(points, centroids, assign, lo, hi, spherical)
	})
	var total float64
	for _, p := range part {
		total += p
	}
	return total
}

func assignRange(points, centroids *mat.Matrix, assign []int, lo, hi int, spherical bool) float64 {
	var obj float64
	k := centroids.Rows()
	if spherical {
		norms := make([]float64, k)
		for c := 0; c < k; c++ {
			norms[c] = mat.Norm(centroids.Row(c))
		}
		for i := lo; i < hi; i++ {
			p := points.Row(i)
			pn := mat.Norm(p)
			best, bestCos := 0, math.Inf(-1)
			for c := 0; c < k; c++ {
				denom := pn * norms[c]
				var cos float64
				if denom == 0 {
					cos = 1 // degenerate: zero vectors co-located by convention
				} else {
					cos = mat.Dot(p, centroids.Row(c)) / denom
				}
				if cos > bestCos {
					best, bestCos = c, cos
				}
			}
			assign[i] = best
			obj += 1 - bestCos
		}
		return obj
	}
	for i := lo; i < hi; i++ {
		p := points.Row(i)
		best, bestD := 0, math.Inf(1)
		c := 0
		// Four centroids per pass over p, compared in centroid order, so
		// the winner and its distance are what one sqDist per centroid
		// gives.
		for ; c+4 <= k; c += 4 {
			d0, d1, d2, d3 := sqDist4(p, centroids.Row(c), centroids.Row(c+1), centroids.Row(c+2), centroids.Row(c+3))
			if d0 < bestD {
				best, bestD = c, d0
			}
			if d1 < bestD {
				best, bestD = c+1, d1
			}
			if d2 < bestD {
				best, bestD = c+2, d2
			}
			if d3 < bestD {
				best, bestD = c+3, d3
			}
		}
		for ; c < k; c++ {
			if d := sqDist(p, centroids.Row(c)); d < bestD {
				best, bestD = c, d
			}
		}
		assign[i] = best
		obj += bestD
	}
	return obj
}

// updateCentroids recomputes each centroid as the mean of its members.
// Empty clusters are re-seeded with a random point, the standard Lloyd
// repair. Spherical mode re-projects centroids onto the unit sphere.
func updateCentroids(points, centroids *mat.Matrix, assign []int, sizes []int, rng *rand.Rand, spherical bool) {
	k := centroids.Rows()
	for i := range centroids.Data() {
		centroids.Data()[i] = 0
	}
	for i := range sizes {
		sizes[i] = 0
	}
	for i, c := range assign {
		p := points.Row(i)
		cr := centroids.Row(c)
		for j, v := range p {
			cr[j] += v
		}
		sizes[c]++
	}
	for c := 0; c < k; c++ {
		if sizes[c] == 0 {
			copy(centroids.Row(c), points.Row(rng.Intn(points.Rows())))
			continue
		}
		mat.Scale(centroids.Row(c), 1/float64(sizes[c]))
		if spherical {
			mat.Normalize(centroids.Row(c))
		}
	}
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i, v := range a {
		d := v - b[i]
		s += d * d
	}
	return s
}

// sqDist4 is sqDist(a, b0) … sqDist(a, b3) in one pass over a: four
// independent chains, each summed in sqDist's order.
func sqDist4(a, b0, b1, b2, b3 []float64) (s0, s1, s2, s3 float64) {
	b0, b1, b2, b3 = b0[:len(a)], b1[:len(a)], b2[:len(a)], b3[:len(a)]
	for i, v := range a {
		d0, d1, d2, d3 := v-b0[i], v-b1[i], v-b2[i], v-b3[i]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	return s0, s1, s2, s3
}

// MaxAngle returns, for each cluster, the largest angle θuc (radians) between
// any member and its centroid — the θb bound MAXIMUS's index construction
// needs (Algorithm 1). Clusters with no members get θb = 0.
func MaxAngle(points *mat.Matrix, r *Result) []float64 {
	theta := make([]float64, r.Centroids.Rows())
	for i, c := range r.Assign {
		a := mat.Angle(points.Row(i), r.Centroids.Row(c))
		if a > theta[c] {
			theta[c] = a
		}
	}
	return theta
}

// MeanAngle returns the average member-to-centroid angle across all points,
// the statistic the paper uses to compare k-means against spherical
// clustering (§III-A reports k-means within ~7%).
func MeanAngle(points *mat.Matrix, r *Result) float64 {
	if len(r.Assign) == 0 {
		return 0
	}
	var sum float64
	for i, c := range r.Assign {
		sum += mat.Angle(points.Row(i), r.Centroids.Row(c))
	}
	return sum / float64(len(r.Assign))
}
