package registry

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
)

// undescribed names the families whose indexes describe no arrays, and
// why; every other family's Arrays() must account for what it holds.
var undescribed = map[string]string{
	"BS":        "binary search holds no array of its own",
	"CuckooMap": "an untraced point index, sized by SizeBytes alone",
	"FST":       "its arrays are not described yet (ROADMAP item 24)",
	"Wormhole":  "its prefix hash is a Go map, priced by a model",
}

// TestArraysDescribeEverySlice walks every rung of every family built
// over amzn keys by reflection and requires each non-empty slice the
// index can reach to appear in its Arrays() with its length and element
// size, each described array matching one slice at most. A slice whose
// elements hold slices (a tree's levels, PGM's per-level arrays) is the
// spine the walk descends, not an array: the slices inside are the
// arrays. An array described in bytes, as ART's byte-addressed node
// arrays are, matches a slice of as many bytes. The heap audit
// (TestRetainedHeapMatchesSizeBytes) cannot see an array smaller than
// its slack, such as Robin Hood's 1-byte dist array; this can. The
// indexed keys, which an index may keep, are the ordinal past its
// arrays, not one of them.
func TestArraysDescribeEverySlice(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Amzn, 20_000, 1)
	for _, family := range Families() {
		for _, nb := range Sweep(family, keys) {
			idx, err := nb.Builder.Build(keys)
			if err != nil {
				t.Fatalf("%s %s: %v", family, nb.Label, err)
			}
			arrays := arraysOf(idx)
			if _, ok := undescribed[family]; ok || arrays == nil {
				if !ok || arrays != nil {
					t.Errorf("%s %s: describes arrays %v; undescribed lists it: %v", family, nb.Label, arrays, ok)
				}
				continue
			}
			for _, s := range undescribedSlices(idx, arrays, keys) {
				t.Errorf("%s %s: %s is in none of its arrays %v", family, nb.Label, s, arrays)
			}
		}
	}
}

// undescribedSlices returns the slices reachable from idx that no array
// of arrays describes, each as its field path, length and element size.
func undescribedSlices(idx core.Index, arrays []core.Array, keys []core.Key) []string {
	free := slices.Clone(arrays)
	seen := map[uintptr]bool{}
	var missing []string
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.Pointer, reflect.Interface:
			if v.IsNil() {
				return
			}
			if v.Kind() == reflect.Pointer {
				if seen[v.Pointer()] {
					return
				}
				seen[v.Pointer()] = true
			}
			walk(v.Elem(), path)
		case reflect.Struct:
			for i := range v.NumField() {
				walk(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
		case reflect.Array:
			for i := range v.Len() {
				walk(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
			}
		case reflect.Map:
			missing = append(missing, fmt.Sprintf("%s (a map of %d)", path, v.Len()))
		case reflect.Slice:
			if v.Len() == 0 || v.Pointer() == reflect.ValueOf(keys).Pointer() {
				return
			}
			if holdsSlices(v.Type().Elem()) {
				for i := range v.Len() {
					walk(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
				}
				return
			}
			elem := int(v.Type().Elem().Size())
			if i := slices.IndexFunc(free, func(a core.Array) bool {
				return a.Len == v.Len() && a.Elem == elem || a.Elem == 1 && a.Len == v.Len()*elem
			}); i >= 0 {
				free = slices.Delete(free, i, i+1)
			} else {
				missing = append(missing, fmt.Sprintf("%s (%d×%dB)", path, v.Len(), elem))
			}
		}
	}
	walk(reflect.ValueOf(idx), reflect.TypeOf(idx).String())
	return missing
}

// holdsSlices reports whether a value of type t can reach a slice or a
// map, so a walk must look inside it.
func holdsSlices(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Slice, reflect.Map, reflect.Pointer, reflect.Interface:
		return true
	case reflect.Array:
		return holdsSlices(t.Elem())
	case reflect.Struct:
		for i := range t.NumField() {
			if holdsSlices(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}
