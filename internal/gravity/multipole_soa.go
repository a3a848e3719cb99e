package gravity

// MultipoleSoA is an interaction list of accepted cell multipoles in
// structure-of-arrays layout: centers of mass, masses, and the six
// components of the traceless quadrupole tensor (vec.Sym33 order: xx, yy,
// zz, xy, xz, yz) in parallel arrays. The traversal accumulates accepted
// cells here in walk order, exactly the way direct-interaction bodies
// accumulate in a SoA, so the batched cell kernels stream flat []float64
// arrays instead of calling Multipole.AccelAt per (cell, sink) pair.
type MultipoleSoA struct {
	CX, CY, CZ, M                []float64
	QXX, QYY, QZZ, QXY, QXZ, QYZ []float64
}

// Len returns the number of cells on the list.
func (c *MultipoleSoA) Len() int { return len(c.CX) }

// Reset empties the list, keeping the backing arrays for reuse.
func (c *MultipoleSoA) Reset() {
	c.CX, c.CY, c.CZ, c.M = c.CX[:0], c.CY[:0], c.CZ[:0], c.M[:0]
	c.QXX, c.QYY, c.QZZ = c.QXX[:0], c.QYY[:0], c.QZZ[:0]
	c.QXY, c.QXZ, c.QYZ = c.QXY[:0], c.QXZ[:0], c.QYZ[:0]
}

// Push appends one accepted cell.
func (c *MultipoleSoA) Push(m *Multipole) {
	c.CX = append(c.CX, m.COM[0])
	c.CY = append(c.CY, m.COM[1])
	c.CZ = append(c.CZ, m.COM[2])
	c.M = append(c.M, m.M)
	c.QXX = append(c.QXX, m.Q[0])
	c.QYY = append(c.QYY, m.Q[1])
	c.QZZ = append(c.QZZ, m.Q[2])
	c.QXY = append(c.QXY, m.Q[3])
	c.QXZ = append(c.QXZ, m.Q[4])
	c.QYZ = append(c.QYZ, m.Q[5])
}

// At reassembles entry i as a Multipole (test and reference-path helper;
// the hot path never materializes one).
func (c *MultipoleSoA) At(i int) Multipole {
	var m Multipole
	m.COM[0], m.COM[1], m.COM[2] = c.CX[i], c.CY[i], c.CZ[i]
	m.M = c.M[i]
	m.Q[0], m.Q[1], m.Q[2] = c.QXX[i], c.QYY[i], c.QZZ[i]
	m.Q[3], m.Q[4], m.Q[5] = c.QXY[i], c.QXZ[i], c.QYZ[i]
	return m
}
