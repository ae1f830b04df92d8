package presburger

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"strings"
)

// members is the storage of UnionSet and UnionMap: one member per key, the
// union of everything added under it.
type members[K comparable, V interface{ Union(V) V }] map[K]V

// union returns a fresh collection holding ms with every member of o
// unioned in under its key.
func (ms members[K, V]) union(o members[K, V]) members[K, V] {
	out := make(members[K, V], len(ms)+len(o))
	maps.Copy(out, ms)
	for key, v := range o {
		if cur, ok := out[key]; ok {
			v = cur.Union(v)
		}
		out[key] = v
	}
	return out
}

// sorted returns the members in key order.
func (ms members[K, V]) sorted(compare func(a, b K) int) []V {
	out := make([]V, 0, len(ms))
	for _, key := range slices.SortedFunc(maps.Keys(ms), compare) {
		out = append(out, ms[key])
	}
	return out
}

// join renders the members of a union set or map.
func join[V fmt.Stringer](vs []V) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = v.String()
	}
	return strings.Join(parts, "; ")
}

// UnionSet is a collection of sets living in differently named spaces
// (e.g. the instances of several statements).
type UnionSet struct {
	sets members[string, Set]
}

// NewUnionSet returns an empty union set.
func NewUnionSet() UnionSet { return UnionSet{sets: members[string, Set]{}} }

// Add unions a set into the collection.
func (u UnionSet) Add(s Set) UnionSet {
	return UnionSet{sets: u.sets.union(members[string, Set]{s.space.Name: s})}
}

// Get returns the set in the named space.
func (u UnionSet) Get(name string) (Set, bool) {
	s, ok := u.sets[name]
	return s, ok
}

// Sets returns the member sets sorted by space name.
func (u UnionSet) Sets() []Set { return u.sets.sorted(strings.Compare) }

// Union returns the union of two union sets.
func (u UnionSet) Union(o UnionSet) UnionSet { return UnionSet{sets: u.sets.union(o.sets)} }

// String renders the union set.
func (u UnionSet) String() string { return join(u.Sets()) }

type spacePair struct{ in, out string }

func (p spacePair) compare(o spacePair) int {
	return cmp.Or(strings.Compare(p.in, o.in), strings.Compare(p.out, o.out))
}

// UnionMap is a collection of maps between differently named spaces
// (e.g. a schedule mapping every statement into the schedule space, or an
// access map from statements to arrays).
type UnionMap struct {
	maps members[spacePair, Map]
}

// NewUnionMap returns an empty union map.
func NewUnionMap() UnionMap { return UnionMap{maps: members[spacePair, Map]{}} }

// Add unions a map into the collection.
func (u UnionMap) Add(m Map) UnionMap {
	return UnionMap{maps: u.maps.union(members[spacePair, Map]{{m.in.Name, m.out.Name}: m})}
}

// Maps returns the member maps in a deterministic order.
func (u UnionMap) Maps() []Map { return u.maps.sorted(spacePair.compare) }

// Get returns the map between the named spaces.
func (u UnionMap) Get(in, out string) (Map, bool) {
	m, ok := u.maps[spacePair{in, out}]
	return m, ok
}

// Union returns the union of two union maps.
func (u UnionMap) Union(o UnionMap) UnionMap { return UnionMap{maps: u.maps.union(o.maps)} }

// Reverse swaps inputs and outputs of every member map.
func (u UnionMap) Reverse() UnionMap {
	out := NewUnionMap()
	for _, m := range u.Maps() {
		out = out.Add(m.Reverse())
	}
	return out
}

// Domain returns the union of the domains of the member maps.
func (u UnionMap) Domain() (UnionSet, error) {
	out := NewUnionSet()
	for _, m := range u.Maps() {
		d, err := m.Domain()
		if err != nil {
			return UnionSet{}, err
		}
		out = out.Add(d)
	}
	return out, nil
}

// Range returns the union of the ranges of the member maps.
func (u UnionMap) Range() (UnionSet, error) {
	out := NewUnionSet()
	for _, m := range u.Maps() {
		r, err := m.Range()
		if err != nil {
			return UnionSet{}, err
		}
		out = out.Add(r)
	}
	return out, nil
}

// ApplyRange composes u with o (o ∘ u) for every pair of member maps whose
// intermediate spaces match by name and arity.
func (u UnionMap) ApplyRange(o UnionMap) (UnionMap, error) {
	out := NewUnionMap()
	for _, a := range u.Maps() {
		for _, b := range o.Maps() {
			if !a.out.Equal(b.in) {
				continue
			}
			c, err := a.ApplyRange(b)
			if err != nil {
				return UnionMap{}, err
			}
			if len(c.basics) > 0 {
				out = out.Add(c)
			}
		}
	}
	return out, nil
}

// Intersect intersects two union maps: member maps between the same pair of
// spaces are intersected, all other members are dropped.
func (u UnionMap) Intersect(o UnionMap) UnionMap {
	out := NewUnionMap()
	for key, m := range u.maps {
		if om, ok := o.maps[key]; ok {
			r := m.Intersect(om)
			if len(r.basics) > 0 {
				out = out.Add(r)
			}
		}
	}
	return out
}

// IntersectDomain restricts every member map to inputs in the union set.
func (u UnionMap) IntersectDomain(s UnionSet) UnionMap {
	out := NewUnionMap()
	for _, m := range u.Maps() {
		if ds, ok := s.Get(m.in.Name); ok {
			r := m.IntersectDomain(ds)
			if len(r.basics) > 0 {
				out = out.Add(r)
			}
		}
	}
	return out
}

// IntersectRange restricts every member map to outputs in the union set.
func (u UnionMap) IntersectRange(s UnionSet) UnionMap {
	out := NewUnionMap()
	for _, m := range u.Maps() {
		if rs, ok := s.Get(m.out.Name); ok {
			r := m.IntersectRange(rs)
			if len(r.basics) > 0 {
				out = out.Add(r)
			}
		}
	}
	return out
}

// String renders the union map.
func (u UnionMap) String() string { return join(u.Maps()) }
