package qpoly

import (
	"slices"

	"haystack/internal/ints"
)

// termTable merges like terms as they arrive. Every group keeps the place of
// its first appearance; its power row lives in one slab shared by all groups
// (whose tail row is the scratch row the next term is written into), and a
// group is found by hash, through a linear scan while the table is small and
// an open-addressing index once it grows.
type termTable struct {
	width int
	rows  []int // group g is rows[g*width:(g+1)*width]; one scratch row follows
	heads []groupHead
	index []int32 // group+1 per slot, 0 when free; nil while scanning linearly
}

type groupHead struct {
	coef ints.Rat
	hash uint64
}

// linearGroups is the group count up to which lookups scan the heads.
const linearGroups = 16

// newTermTable returns a table sized for hint groups.
func newTermTable(width, hint int) termTable {
	tt := termTable{
		width: width,
		rows:  make([]int, width, (hint+1)*width),
		heads: make([]groupHead, 0, hint),
	}
	if hint > linearGroups {
		tt.reindex(2 * hint)
	}
	return tt
}

// next returns the zeroed scratch row the next term is written into before
// commit.
func (tt *termTable) next() []int {
	n := len(tt.heads) * tt.width
	return tt.rows[n : n+tt.width]
}

// commit adds coef to the group of the scratch row, opening a new group if
// none matches, and returns the group.
func (tt *termTable) commit(coef ints.Rat) (g int, opened bool) {
	w := tt.width
	row := tt.next()
	h := hashRow(row)
	if g := tt.find(row, h); g >= 0 {
		tt.heads[g].coef = tt.heads[g].coef.Add(coef)
		clear(row)
		return g, false
	}
	g = len(tt.heads)
	tt.heads = append(tt.heads, groupHead{coef: coef, hash: h})
	tt.rows = append(tt.rows, make([]int, w)...)
	switch {
	case tt.index != nil && 2*len(tt.heads) > len(tt.index):
		tt.reindex(2 * len(tt.index))
	case tt.index != nil:
		tt.insert(g)
	case len(tt.heads) > linearGroups:
		tt.reindex(4 * len(tt.heads))
	}
	return g, true
}

func (tt *termTable) row(g int) []int {
	w := tt.width
	return tt.rows[g*w : (g+1)*w : (g+1)*w]
}

func (tt *termTable) find(row []int, h uint64) int {
	if tt.index == nil {
		for g := range tt.heads {
			if tt.heads[g].hash == h && slices.Equal(tt.row(g), row) {
				return g
			}
		}
		return -1
	}
	mask := uint64(len(tt.index) - 1)
	for s := h & mask; ; s = (s + 1) & mask {
		e := tt.index[s]
		if e == 0 {
			return -1
		}
		if g := int(e - 1); tt.heads[g].hash == h && slices.Equal(tt.row(g), row) {
			return g
		}
	}
}

func (tt *termTable) insert(g int) {
	mask := uint64(len(tt.index) - 1)
	s := tt.heads[g].hash & mask
	for tt.index[s] != 0 {
		s = (s + 1) & mask
	}
	tt.index[s] = int32(g + 1)
}

// reindex rebuilds the index with at least size slots (rounded up to a
// power of two).
func (tt *termTable) reindex(size int) {
	n := 1
	for n < size {
		n <<= 1
	}
	tt.index = make([]int32, n)
	for g := range tt.heads {
		tt.insert(g)
	}
}

// terms returns the nonzero groups in order of first appearance; their rows
// stay in the slab.
func (tt *termTable) terms() []Term {
	n := 0
	for _, h := range tt.heads {
		if !h.coef.IsZero() {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]Term, 0, n)
	for g, h := range tt.heads {
		if !h.coef.IsZero() {
			out = append(out, Term{Coef: h.coef, Pow: tt.row(g)})
		}
	}
	return out
}

// termSink merges terms whose rows are laid out over an atom table into a
// term table over the table's canonical form: an atom column maps to its
// canonical atom and a constant atom folds into the coefficient, in column
// order. A term is written into row and then committed.
type termSink struct {
	nvar int
	ct   canonTable
	raw  []int // the row over the original table, when that is not canonical
	tt   termTable
}

func newTermSink(nvar int, atoms []Atom, hint int) termSink {
	s := termSink{nvar: nvar, ct: canonicalOf(nvar, atoms)}
	s.tt = newTermTable(nvar+len(s.ct.atoms), hint)
	if s.ct.amap != nil {
		s.raw = make([]int, nvar+len(atoms))
	}
	return s
}

// row returns the zeroed row the next term is written into.
func (s *termSink) row() []int {
	if s.raw != nil {
		return s.raw
	}
	return s.tt.next()
}

// commit adds the term written into row with coefficient coef.
func (s *termSink) commit(coef ints.Rat) {
	if s.raw != nil {
		dst := s.tt.next()
		for j, e := range s.raw {
			if e == 0 {
				continue
			}
			s.raw[j] = 0
			if j < s.nvar {
				dst[j] = e
				continue
			}
			if a, c := s.ct.atomAt(j - s.nvar); a < 0 {
				for k := 0; k < e; k++ {
					coef = coef.Mul(ints.RatInt(c))
				}
			} else {
				dst[s.nvar+a] += e
			}
		}
	}
	s.tt.commit(coef)
}

// result returns the merged terms over the canonical table, unused atoms
// dropped.
func (s *termSink) result() QPoly {
	atoms := s.ct.atoms[:len(s.ct.atoms):len(s.ct.atoms)]
	return QPoly{NVar: s.nvar, Atoms: atoms, Terms: s.tt.terms()}.dropUnusedAtoms()
}

func hashRow(row []int) uint64 {
	h := uint64(14695981039346656037)
	for _, e := range row {
		h ^= uint64(e)
		h *= 1099511628211
	}
	return h
}

// foldSum computes out = Zero.Add(F_1).Add(F_2)... in place, for summands
// whose atoms all come from one canonical table (the fold's table), with
// the atom order and term order the chain of Adds produces. Each Add keeps
// the atoms and terms of out in place and appends those of F that out
// lacks; a term group that cancels leaves out, and so does every atom no
// remaining term uses. A group or atom that comes back later is appended
// again. foldSum mirrors that with order keys: a group or atom gets a fresh
// key whenever it (re)enters the sum, and 0 while it is absent.
type foldSum struct {
	nvar   int
	atoms  []Atom // the fold's table; numerators over [const, vars, table atoms]
	aseq   []int32
	tt     termTable
	gseq   []int32
	next   int32
	died   bool
	shared bool // no group was revived and no atom left: rows and table are final
	marks  []bool
}

func newFoldSum(nvar int, atoms []Atom, hint int) foldSum {
	return foldSum{
		nvar:   nvar,
		atoms:  atoms,
		aseq:   make([]int32, len(atoms)),
		tt:     newTermTable(nvar+len(atoms), hint),
		gseq:   make([]int32, 0, hint),
		next:   1,
		shared: true,
	}
}

// mergeAtom brings atom a into the sum; its references must be present.
func (f *foldSum) mergeAtom(a int) {
	if f.aseq[a] == 0 {
		f.aseq[a] = f.next
		f.next++
	}
}

// mergeClosures brings in the atoms in want (a mark per table atom, cleared
// on return) together with every atom they reference, in table order: the
// order a summand whose table is the closure in table order appends them.
func (f *foldSum) mergeClosures(want []bool) {
	for a := len(want) - 1; a >= 0; a-- {
		if !want[a] {
			continue
		}
		if f.aseq[a] != 0 {
			// Present atoms have their references present.
			want[a] = false
			continue
		}
		num := f.atoms[a].Num
		for j := 1 + f.nvar; j < len(num); j++ {
			if num[j] != 0 {
				want[j-1-f.nvar] = true
			}
		}
	}
	for a, w := range want {
		if w {
			want[a] = false
			f.mergeAtom(a)
		}
	}
}

// add commits the table's scratch row with coef as one term of the current
// summand. The terms of one summand must have distinct rows.
func (f *foldSum) add(coef ints.Rat) {
	g, opened := f.tt.commit(coef)
	switch {
	case opened:
		f.gseq = append(f.gseq, f.next)
		f.next++
	case f.tt.heads[g].coef.IsZero():
		f.gseq[g] = 0
		f.died = true
	case f.gseq[g] == 0:
		f.gseq[g] = f.next
		f.next++
		f.shared = false
	}
}

// endSummand drops the atoms that no remaining term uses once a group of
// the summand has cancelled.
func (f *foldSum) endSummand() {
	if !f.died {
		return
	}
	f.died = false
	f.shared = false
	if f.marks == nil {
		f.marks = make([]bool, len(f.atoms))
	}
	used := f.marks
	for g, s := range f.gseq {
		if s == 0 {
			continue
		}
		row := f.tt.row(g)
		for a := range f.atoms {
			if row[f.nvar+a] != 0 {
				used[a] = true
			}
		}
	}
	for a := len(f.atoms) - 1; a >= 0; a-- {
		if !used[a] {
			continue
		}
		num := f.atoms[a].Num
		for j := 1 + f.nvar; j < len(num); j++ {
			if num[j] != 0 {
				used[j-1-f.nvar] = true
			}
		}
	}
	for a := range used {
		if !used[a] {
			f.aseq[a] = 0
		}
		used[a] = false
	}
}

// result returns the sum: present atoms and groups in key order, atom
// numerators laid out over the result's own columns.
func (f *foldSum) result() QPoly {
	out := QPoly{NVar: f.nvar}
	live := make([]int32, 0, len(f.atoms))
	for a, s := range f.aseq {
		if s != 0 {
			live = append(live, int32(a))
		}
	}
	sortByKey(live, f.aseq)
	// The chain of Adds lays every atom it appends over the columns before
	// it, so the table can be returned as is only if it is already laid out
	// that way.
	identity := len(live) == len(f.atoms)
	for i, a := range live {
		identity = identity && int(a) == i && len(f.atoms[i].Num) == 1+f.nvar+i
	}
	if f.shared && identity {
		out.Atoms = f.atoms[:len(f.atoms):len(f.atoms)]
		out.Terms = f.tt.terms()
		return out
	}
	col := make([]int, len(f.atoms))
	for i, a := range live {
		col[a] = i
	}
	out.Atoms = make([]Atom, len(live))
	slab := make([]int64, len(live)*(1+f.nvar)+len(live)*(len(live)-1)/2)
	for i, a := range live {
		w := 1 + f.nvar + i
		num := slab[:w:w]
		slab = slab[w:]
		src := f.atoms[a].Num
		copy(num, src[:min(len(src), 1+f.nvar)])
		for j := 1 + f.nvar; j < len(src); j++ {
			if src[j] != 0 {
				num[1+f.nvar+col[j-1-f.nvar]] += src[j]
			}
		}
		out.Atoms[i] = Atom{Num: num, Den: f.atoms[a].Den}
	}
	groups := make([]int32, 0, len(f.gseq))
	for g, s := range f.gseq {
		if s != 0 {
			groups = append(groups, int32(g))
		}
	}
	if len(groups) == 0 {
		out.Atoms = nil
		return out
	}
	sortByKey(groups, f.gseq)
	width := f.nvar + len(live)
	rows := make([]int, len(groups)*width)
	out.Terms = make([]Term, len(groups))
	for i, g := range groups {
		row := rows[i*width : (i+1)*width : (i+1)*width]
		src := f.tt.row(int(g))
		copy(row, src[:f.nvar])
		for a, e := range src[f.nvar:] {
			if e != 0 {
				row[f.nvar+col[a]] = e
			}
		}
		out.Terms[i] = Term{Coef: f.tt.heads[g].coef, Pow: row}
	}
	return out
}

// sortByKey sorts ids by key[id] (insertion sort: the ids arrive nearly
// sorted, out of place only where something re-entered the sum).
func sortByKey(ids []int32, key []int32) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && key[ids[j]] < key[ids[j-1]]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}
