package manifold

import (
	"fmt"
	"math"

	"nshd/internal/nn"
	"nshd/internal/tensor"
)

// Truncated-SVD factorization of the FC regressor for the engine's
// post-training compression pass (DPQ-HD's decomposition stage): W ≈ U·V with
// U = U_r ([F̂, r], the top-r left singular vectors) and V = U_rᵀ·W
// ([r, PooledF]). The factors are found by a cyclic Jacobi eigendecomposition
// of the small symmetric W·Wᵀ ([F̂, F̂]) — deterministic (fixed sweep order,
// pure float64), dependency-free, and exact enough at these shapes that the
// r = F̂ factorization reproduces W to float32 round-off.
//
// A factorized learner serves pool → flatten → V → U(+bias); it is
// inference-only (Backward panics) — compression happens after training.

// svdEnergyKeep is the spectral-energy fraction AutoRank must retain:
// the smallest r with Σ_{top r} λ_i ≥ svdEnergyKeep·Σ λ_i.
const svdEnergyKeep = 0.995

// jacobiEigSym diagonalizes the symmetric n×n row-major matrix a in place by
// cyclic Jacobi rotations, returning eigenvalues sorted descending and the
// matching eigenvectors as COLUMNS of vecs (vecs[i*n+j] = component i of
// eigenvector j).
func jacobiEigSym(a []float64, n int) (vals []float64, vecs []float64) {
	v := make([]float64, n*n)
	for i := 0; i < n; i++ {
		v[i*n+i] = 1
	}
	for sweep := 0; sweep < 64; sweep++ {
		var off float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += a[i*n+j] * a[i*n+j]
			}
		}
		if off < 1e-22 {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := a[p*n+q]
				if math.Abs(apq) < 1e-300 {
					continue
				}
				theta := (a[q*n+q] - a[p*n+p]) / (2 * apq)
				t := 1 / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				if theta < 0 {
					t = -t
				}
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				for i := 0; i < n; i++ {
					aip, aiq := a[i*n+p], a[i*n+q]
					a[i*n+p] = c*aip - s*aiq
					a[i*n+q] = s*aip + c*aiq
				}
				for j := 0; j < n; j++ {
					apj, aqj := a[p*n+j], a[q*n+j]
					a[p*n+j] = c*apj - s*aqj
					a[q*n+j] = s*apj + c*aqj
				}
				for i := 0; i < n; i++ {
					vip, viq := v[i*n+p], v[i*n+q]
					v[i*n+p] = c*vip - s*viq
					v[i*n+q] = s*vip + c*viq
				}
			}
		}
	}
	// Sort eigenpairs by descending eigenvalue, stable in original column
	// order on exact ties, so the factorization is a pure function of W.
	ord := make([]int, n)
	for i := range ord {
		ord[i] = i
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && a[ord[j]*n+ord[j]] > a[ord[j-1]*n+ord[j-1]]; j-- {
			ord[j], ord[j-1] = ord[j-1], ord[j]
		}
	}
	vals = make([]float64, n)
	vecs = make([]float64, n*n)
	for j, o := range ord {
		vals[j] = a[o*n+o]
		for i := 0; i < n; i++ {
			vecs[i*n+j] = v[i*n+o]
		}
	}
	return vals, vecs
}

// spectrum returns the descending eigenvalues of W·Wᵀ (the squared singular
// values of W) and the eigenvector matrix.
func (l *Learner) spectrum() (vals []float64, vecs []float64, n int) {
	w := l.fc.Weight.W // [F̂, PooledF]
	n = l.FHat
	a := make([]float64, n*n)
	for i := 0; i < n; i++ {
		ri := w.Row(i)
		for j := i; j < n; j++ {
			rj := w.Row(j)
			var s float64
			for t := range ri {
				s += float64(ri[t]) * float64(rj[t])
			}
			a[i*n+j] = s
			a[j*n+i] = s
		}
	}
	vals, vecs = jacobiEigSym(a, n)
	return vals, vecs, n
}

// AutoRank picks the truncation rank for Factorize: the smallest r retaining
// svdEnergyKeep of the spectral energy of W, gated by the MAC/byte test
// r·(PooledF+F̂) < PooledF·F̂ — the factorized pair must actually be smaller
// than the dense FC. Returns 0 when no rank passes the gate (keep the dense
// FC).
func (l *Learner) AutoRank() int {
	if l == nil || l.fc == nil || l.fcDown != nil {
		return 0
	}
	vals, _, n := l.spectrum()
	var total float64
	for _, v := range vals {
		if v > 0 {
			total += v
		}
	}
	if total == 0 {
		return 0
	}
	var acc float64
	r := n
	for i, v := range vals {
		if v > 0 {
			acc += v
		}
		if acc >= svdEnergyKeep*total {
			r = i + 1
			break
		}
	}
	if int64(r)*int64(l.PooledF+l.FHat) >= int64(l.PooledF)*int64(l.FHat) {
		return 0
	}
	return r
}

// Factorize returns a new inference-only learner whose FC is replaced by the
// truncated pair V = U_rᵀ·W ([rank, PooledF], no bias) followed by U_r
// ([F̂, rank]) with the original bias. The source learner is untouched.
func (l *Learner) Factorize(rank int) (*Learner, error) {
	if l == nil || l.fc == nil {
		return nil, fmt.Errorf("manifold: Factorize on a nil/empty manifold")
	}
	if l.fcDown != nil {
		return nil, fmt.Errorf("manifold: Factorize on an already-factorized manifold")
	}
	if rank < 1 || rank > l.FHat {
		return nil, fmt.Errorf("manifold: Factorize rank %d out of [1, %d]", rank, l.FHat)
	}
	_, vecs, n := l.spectrum()
	w := l.fc.Weight.W // [F̂, PooledF]

	rng := tensor.NewRNG(0) // weights are overwritten below
	up := nn.NewLinear(rng, rank, l.FHat, l.fc.Bias != nil)
	for i := 0; i < l.FHat; i++ {
		row := up.Weight.W.Row(i)
		for j := 0; j < rank; j++ {
			row[j] = float32(vecs[i*n+j])
		}
	}
	if l.fc.Bias != nil {
		copy(up.Bias.W.Data, l.fc.Bias.W.Data)
	}
	down := nn.NewLinear(rng, l.PooledF, rank, false)
	for j := 0; j < rank; j++ {
		row := down.Weight.W.Row(j) // [PooledF]
		for t := 0; t < l.PooledF; t++ {
			var s float64
			for i := 0; i < l.FHat; i++ {
				s += vecs[i*n+j] * float64(w.Row(i)[t])
			}
			row[t] = float32(s)
		}
	}
	return &Learner{
		InShape: append([]int(nil), l.InShape...),
		FHat:    l.FHat,
		PooledF: l.PooledF,
		pool:    l.pool,
		fc:      up,
		fcDown:  down,
	}, nil
}

// Down exposes the factorized down-projection V ([rank, PooledF]), nil on an
// unfactorized learner.
func (l *Learner) Down() *nn.Linear { return l.fcDown }

// Rank reports the factorization rank, 0 when the FC is dense.
func (l *Learner) Rank() int {
	if l.fcDown == nil {
		return 0
	}
	return l.fcDown.Out
}
