package gravity

import (
	"math"

	"spacesim/internal/vec"
)

// Batched structure-of-arrays kernels (the 2HOT-style grouped evaluation):
// one interaction list is built per leaf bucket and applied to every sink
// body in the bucket, so the inner loops run over flat []float64 arrays.
// Relative to the one-sink-at-a-time kernels in kernel.go this amortizes
// bounds checks and walk overhead across the bucket and keeps the
// reciprocal-sqrt pipeline busy across consecutive sources.
//
// The loops are blocked two ways. Sources are tiled so one tile stays
// L1-resident while every sink of a block sweeps it, and sinks are
// processed in pairs so each source load feeds two independent
// reciprocal-sqrt chains (the chain is latency-bound; two in flight keep
// the multiplier busy). Per sink the summation order over sources is
// unchanged from the seed kernels, so results are bit-identical.
//
// The r2 == 0 self-exclusion is hoisted out of the main loop: when the
// softening is nonzero the excluded pair is realized by zeroing the source
// mass instead of branching around the accumulation. The acceleration
// terms then add an exact +-0 and the potential subtracts 0*rinv — both
// bitwise no-ops (a running sum that starts at +0 can never be -0 under
// round-to-nearest), so the result is identical to the branching loop for
// every input, while the main loop carries no skip branch. The eps == 0
// case, where the excluded term would be infinite, falls back to the
// checked reference loop.
const (
	// sinkBlock bounds the on-stack partial-sum arrays; larger buckets
	// are processed in chunks of this many sinks.
	sinkBlock = 64
	// srcTile is the source-block length: 4 arrays x 8 B x 1024 = 32 KiB,
	// sized to stay L1-resident across the sink sweeps of one tile.
	srcTile = 1024
	// cellTile is the cell-block length of the cell kernels: 10 arrays
	// x 8 B x 384 = 30 KiB.
	cellTile = 384
)

// SoA is a particle list in structure-of-arrays layout, the source operand
// of the batched kernels.
type SoA struct {
	X, Y, Z, M []float64
}

// Len returns the number of particles in the list.
func (s *SoA) Len() int { return len(s.X) }

// Reset empties the list, keeping the backing arrays for reuse.
func (s *SoA) Reset() {
	s.X, s.Y, s.Z, s.M = s.X[:0], s.Y[:0], s.Z[:0], s.M[:0]
}

// Push appends one particle.
func (s *SoA) Push(p vec.V3, m float64) {
	s.X = append(s.X, p[0])
	s.Y = append(s.Y, p[1])
	s.Z = append(s.Z, p[2])
	s.M = append(s.M, m)
}

// PushSources appends a slice of AoS sources.
func (s *SoA) PushSources(src []Source) {
	for i := range src {
		s.Push(src[i].Pos, src[i].Mass)
	}
}

// KernelBatchLibm accumulates into (ax, ay, az, pot)[j] the softened field
// at sink j from every source, using the math library square root.
// Zero-separation pairs (a sink interacting with itself inside its own
// bucket) are skipped, matching the per-body traversal's self-exclusion.
// The sink arrays and the four accumulator arrays must share one length.
func KernelBatchLibm(sx, sy, sz []float64, src *SoA, eps2 float64, ax, ay, az, pot []float64) {
	n := src.Len()
	if n == 0 {
		return
	}
	if eps2 == 0 {
		kernelBatchLibmRef(sx, sy, sz, src, eps2, ax, ay, az, pot)
		return
	}
	xs, ys, zs, ms := src.X[:n], src.Y[:n], src.Z[:n], src.M[:n]
	var fx, fy, fz, fp [sinkBlock]float64
	for b0 := 0; b0 < len(sx); b0 += sinkBlock {
		b1 := min(b0+sinkBlock, len(sx))
		bn := b1 - b0
		for j := 0; j < bn; j++ {
			fx[j], fy[j], fz[j], fp[j] = 0, 0, 0, 0
		}
		for t0 := 0; t0 < n; t0 += srcTile {
			t1 := min(t0+srcTile, n)
			tx := xs[t0:t1]
			ty := ys[t0:t1:t1]
			tz := zs[t0:t1:t1]
			tm := ms[t0:t1:t1]
			j := 0
			for ; j+2 <= bn; j += 2 {
				px0, py0, pz0 := sx[b0+j], sy[b0+j], sz[b0+j]
				px1, py1, pz1 := sx[b0+j+1], sy[b0+j+1], sz[b0+j+1]
				fx0, fy0, fz0, fp0 := fx[j], fy[j], fz[j], fp[j]
				fx1, fy1, fz1, fp1 := fx[j+1], fy[j+1], fz[j+1], fp[j+1]
				for i := range tx {
					xi, yi, zi, mi := tx[i], ty[i], tz[i], tm[i]
					dx0 := xi - px0
					dy0 := yi - py0
					dz0 := zi - pz0
					r20 := dx0*dx0 + dy0*dy0 + dz0*dz0
					m0 := mi
					if r20 == 0 {
						m0 = 0
					}
					dx1 := xi - px1
					dy1 := yi - py1
					dz1 := zi - pz1
					r21 := dx1*dx1 + dy1*dy1 + dz1*dz1
					m1 := mi
					if r21 == 0 {
						m1 = 0
					}
					rinv0 := 1 / math.Sqrt(r20+eps2)
					rinv1 := 1 / math.Sqrt(r21+eps2)
					rinv30 := rinv0 * rinv0 * rinv0
					mr30 := m0 * rinv30
					fx0 += mr30 * dx0
					fy0 += mr30 * dy0
					fz0 += mr30 * dz0
					fp0 -= m0 * rinv0
					rinv31 := rinv1 * rinv1 * rinv1
					mr31 := m1 * rinv31
					fx1 += mr31 * dx1
					fy1 += mr31 * dy1
					fz1 += mr31 * dz1
					fp1 -= m1 * rinv1
				}
				fx[j], fy[j], fz[j], fp[j] = fx0, fy0, fz0, fp0
				fx[j+1], fy[j+1], fz[j+1], fp[j+1] = fx1, fy1, fz1, fp1
			}
			if j < bn {
				px0, py0, pz0 := sx[b0+j], sy[b0+j], sz[b0+j]
				fx0, fy0, fz0, fp0 := fx[j], fy[j], fz[j], fp[j]
				for i := range tx {
					dx0 := tx[i] - px0
					dy0 := ty[i] - py0
					dz0 := tz[i] - pz0
					r20 := dx0*dx0 + dy0*dy0 + dz0*dz0
					m0 := tm[i]
					if r20 == 0 {
						m0 = 0
					}
					rinv0 := 1 / math.Sqrt(r20+eps2)
					rinv30 := rinv0 * rinv0 * rinv0
					mr30 := m0 * rinv30
					fx0 += mr30 * dx0
					fy0 += mr30 * dy0
					fz0 += mr30 * dz0
					fp0 -= m0 * rinv0
				}
				fx[j], fy[j], fz[j], fp[j] = fx0, fy0, fz0, fp0
			}
		}
		for j := 0; j < bn; j++ {
			ax[b0+j] += fx[j]
			ay[b0+j] += fy[j]
			az[b0+j] += fz[j]
			pot[b0+j] += fp[j]
		}
	}
}

// KernelBatchKarp is KernelBatchLibm with the reciprocal square root
// computed by the Karp decomposition, inlined into the loop body so the
// chain schedules across the paired sinks instead of paying a function
// call per interaction.
func KernelBatchKarp(sx, sy, sz []float64, src *SoA, eps2 float64, ax, ay, az, pot []float64) {
	n := src.Len()
	if n == 0 {
		return
	}
	if eps2 == 0 {
		kernelBatchKarpRef(sx, sy, sz, src, eps2, ax, ay, az, pot)
		return
	}
	xs, ys, zs, ms := src.X[:n], src.Y[:n], src.Z[:n], src.M[:n]
	var fx, fy, fz, fp [sinkBlock]float64
	for b0 := 0; b0 < len(sx); b0 += sinkBlock {
		b1 := min(b0+sinkBlock, len(sx))
		bn := b1 - b0
		for j := 0; j < bn; j++ {
			fx[j], fy[j], fz[j], fp[j] = 0, 0, 0, 0
		}
		for t0 := 0; t0 < n; t0 += srcTile {
			t1 := min(t0+srcTile, n)
			tx := xs[t0:t1]
			ty := ys[t0:t1:t1]
			tz := zs[t0:t1:t1]
			tm := ms[t0:t1:t1]
			j := 0
			for ; j+2 <= bn; j += 2 {
				px0, py0, pz0 := sx[b0+j], sy[b0+j], sz[b0+j]
				px1, py1, pz1 := sx[b0+j+1], sy[b0+j+1], sz[b0+j+1]
				fx0, fy0, fz0, fp0 := fx[j], fy[j], fz[j], fp[j]
				fx1, fy1, fz1, fp1 := fx[j+1], fy[j+1], fz[j+1], fp[j+1]
				for i := range tx {
					xi, yi, zi, mi := tx[i], ty[i], tz[i], tm[i]
					dx0 := xi - px0
					dy0 := yi - py0
					dz0 := zi - pz0
					r20 := dx0*dx0 + dy0*dy0 + dz0*dz0
					m0 := mi
					if r20 == 0 {
						m0 = 0
					}
					dx1 := xi - px1
					dy1 := yi - py1
					dz1 := zi - pz1
					r21 := dx1*dx1 + dy1*dy1 + dz1*dz1
					m1 := mi
					if r21 == 0 {
						m1 = 0
					}
					// Karp rsqrt, hand-expanded (the compiler will not inline
					// karpRsqrtInline at its cost) with the two chains
					// interleaved. Same operation sequence as KarpRsqrt's
					// fast path, so results are bit-identical; non-normal
					// arguments (subnormal sums, infinities) defer to the
					// full function.
					q0 := r20 + eps2
					q1 := r21 + eps2
					kb0 := math.Float64bits(q0)
					kb1 := math.Float64bits(q1)
					ke0 := kb0 >> 52 & 0x7ff
					ke1 := kb1 >> 52 & 0x7ff
					var rinv0, rinv1 float64
					if ke0-1 < 0x7fe && ke1-1 < 0x7fe {
						km0 := math.Float64frombits(kb0&(1<<52-1) | 1023<<52)
						km1 := math.Float64frombits(kb1&(1<<52-1) | 1023<<52)
						kx0 := int(ke0) - 1023
						kx1 := int(ke1) - 1023
						if kx0&1 != 0 {
							km0 *= 2
						}
						if kx1&1 != 0 {
							km1 *= 2
						}
						ki0 := int((km0 - 1) * float64(len(karpTable)) / 3)
						ki1 := int((km1 - 1) * float64(len(karpTable)) / 3)
						if ki0 >= len(karpTable) {
							ki0 = len(karpTable) - 1
						}
						if ki1 >= len(karpTable) {
							ki1 = len(karpTable) - 1
						}
						ks0 := karpTable[ki0]
						ks1 := karpTable[ki1]
						y0 := ks0.a + ks0.b*km0
						y1 := ks1.a + ks1.b*km1
						y0 = y0 * (1.5 - 0.5*km0*y0*y0)
						y1 = y1 * (1.5 - 0.5*km1*y1*y1)
						y0 = y0 * (1.5 - 0.5*km0*y0*y0)
						y1 = y1 * (1.5 - 0.5*km1*y1*y1)
						rinv0 = y0 * math.Float64frombits(uint64(1023-kx0>>1)<<52)
						rinv1 = y1 * math.Float64frombits(uint64(1023-kx1>>1)<<52)
					} else {
						rinv0 = KarpRsqrt(q0)
						rinv1 = KarpRsqrt(q1)
					}
					rinv30 := rinv0 * rinv0 * rinv0
					mr30 := m0 * rinv30
					fx0 += mr30 * dx0
					fy0 += mr30 * dy0
					fz0 += mr30 * dz0
					fp0 -= m0 * rinv0
					rinv31 := rinv1 * rinv1 * rinv1
					mr31 := m1 * rinv31
					fx1 += mr31 * dx1
					fy1 += mr31 * dy1
					fz1 += mr31 * dz1
					fp1 -= m1 * rinv1
				}
				fx[j], fy[j], fz[j], fp[j] = fx0, fy0, fz0, fp0
				fx[j+1], fy[j+1], fz[j+1], fp[j+1] = fx1, fy1, fz1, fp1
			}
			if j < bn {
				px0, py0, pz0 := sx[b0+j], sy[b0+j], sz[b0+j]
				fx0, fy0, fz0, fp0 := fx[j], fy[j], fz[j], fp[j]
				for i := range tx {
					dx0 := tx[i] - px0
					dy0 := ty[i] - py0
					dz0 := tz[i] - pz0
					r20 := dx0*dx0 + dy0*dy0 + dz0*dz0
					m0 := tm[i]
					if r20 == 0 {
						m0 = 0
					}
					q0 := r20 + eps2
					kb0 := math.Float64bits(q0)
					ke0 := kb0 >> 52 & 0x7ff
					var rinv0 float64
					if ke0-1 < 0x7fe {
						km0 := math.Float64frombits(kb0&(1<<52-1) | 1023<<52)
						kx0 := int(ke0) - 1023
						if kx0&1 != 0 {
							km0 *= 2
						}
						ki0 := int((km0 - 1) * float64(len(karpTable)) / 3)
						if ki0 >= len(karpTable) {
							ki0 = len(karpTable) - 1
						}
						ks0 := karpTable[ki0]
						y0 := ks0.a + ks0.b*km0
						y0 = y0 * (1.5 - 0.5*km0*y0*y0)
						y0 = y0 * (1.5 - 0.5*km0*y0*y0)
						rinv0 = y0 * math.Float64frombits(uint64(1023-kx0>>1)<<52)
					} else {
						rinv0 = KarpRsqrt(q0)
					}
					rinv30 := rinv0 * rinv0 * rinv0
					mr30 := m0 * rinv30
					fx0 += mr30 * dx0
					fy0 += mr30 * dy0
					fz0 += mr30 * dz0
					fp0 -= m0 * rinv0
				}
				fx[j], fy[j], fz[j], fp[j] = fx0, fy0, fz0, fp0
			}
		}
		for j := 0; j < bn; j++ {
			ax[b0+j] += fx[j]
			ay[b0+j] += fy[j]
			az[b0+j] += fz[j]
			pot[b0+j] += fp[j]
		}
	}
}

// kernelBatchLibmRef is the seed's unblocked batch loop, kept verbatim: it
// is the reference the blocked kernels are tested bit-identical against,
// and the fallback when eps == 0 makes the branch-free self-exclusion
// impossible.
func kernelBatchLibmRef(sx, sy, sz []float64, src *SoA, eps2 float64, ax, ay, az, pot []float64) {
	n := src.Len()
	if n == 0 {
		return
	}
	xs, ys, zs, ms := src.X[:n], src.Y[:n], src.Z[:n], src.M[:n]
	for j := range sx {
		px, py, pz := sx[j], sy[j], sz[j]
		var fx, fy, fz, p float64
		for i := 0; i < n; i++ {
			dx := xs[i] - px
			dy := ys[i] - py
			dz := zs[i] - pz
			r2 := dx*dx + dy*dy + dz*dz
			if r2 == 0 {
				continue
			}
			r2 += eps2
			rinv := 1 / math.Sqrt(r2)
			rinv3 := rinv * rinv * rinv
			mr3 := ms[i] * rinv3
			fx += mr3 * dx
			fy += mr3 * dy
			fz += mr3 * dz
			p -= ms[i] * rinv
		}
		ax[j] += fx
		ay[j] += fy
		az[j] += fz
		pot[j] += p
	}
}

// kernelBatchKarpRef is the seed's unblocked Karp batch loop (see
// kernelBatchLibmRef).
func kernelBatchKarpRef(sx, sy, sz []float64, src *SoA, eps2 float64, ax, ay, az, pot []float64) {
	n := src.Len()
	if n == 0 {
		return
	}
	xs, ys, zs, ms := src.X[:n], src.Y[:n], src.Z[:n], src.M[:n]
	for j := range sx {
		px, py, pz := sx[j], sy[j], sz[j]
		var fx, fy, fz, p float64
		for i := 0; i < n; i++ {
			dx := xs[i] - px
			dy := ys[i] - py
			dz := zs[i] - pz
			r2 := dx*dx + dy*dy + dz*dz
			if r2 == 0 {
				continue
			}
			rinv := KarpRsqrt(r2 + eps2)
			rinv3 := rinv * rinv * rinv
			mr3 := ms[i] * rinv3
			fx += mr3 * dx
			fy += mr3 * dy
			fz += mr3 * dz
			p -= ms[i] * rinv
		}
		ax[j] += fx
		ay[j] += fy
		az[j] += fz
		pot[j] += p
	}
}
