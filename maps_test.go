package amber_test

import (
	"path"
	"reflect"
	"sort"
	"testing"

	"amber/internal/core"
)

// requestPathMaps are the Go maps a type reachable from core.System may
// hold, keyed "pkg.Type.field", each with why it is no hash on the request
// path. Everything a request looks up by LSPN, super-block or page is a
// dense table indexed by it.
var requestPathMaps = map[string]string{
	"sim.Engine.ids":  "the domain registry: filled as an engine's domains are named at set-up, never read per event",
	"nand.Flash.pins": "the pin ledger, keyed by buffer address: only a tracked flash has one, and only Pin, Unpin and a release while pins are live touch it",
}

// TestRequestPathHasNoMaps walks every type reachable from core.System —
// struct fields, pointers, slices, arrays, map keys and values — and fails
// on a map-typed field that requestPathMaps does not list, or a listed one
// that is gone.
func TestRequestPathHasNoMaps(t *testing.T) {
	seen := make(map[reflect.Type]bool)
	found := make(map[string]bool)
	var walk func(reflect.Type)
	walk = func(typ reflect.Type) {
		if seen[typ] {
			return
		}
		seen[typ] = true
		switch typ.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Array, reflect.Chan:
			walk(typ.Elem())
		case reflect.Map:
			walk(typ.Key())
			walk(typ.Elem())
		case reflect.Struct:
			for i := range typ.NumField() {
				f := typ.Field(i)
				if f.Type.Kind() == reflect.Map {
					found[path.Base(typ.PkgPath())+"."+typ.Name()+"."+f.Name] = true
				}
				walk(f.Type)
			}
		}
	}
	walk(reflect.TypeOf(core.System{}))
	var keys []string
	for key := range found {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		if _, ok := requestPathMaps[key]; !ok {
			t.Errorf("%s is a map reachable from core.System: make it a dense table, or list it in requestPathMaps with a reason", key)
		}
	}
	for key := range requestPathMaps {
		if !found[key] {
			t.Errorf("requestPathMaps lists %s, which is no longer a map reachable from core.System", key)
		}
	}
	t.Logf("request-path maps: %d allowed", len(requestPathMaps))
}
