package core

import (
	"reflect"
	"testing"
)

// TestOptimizerStateIsPointerFree walks the element type of each of the
// optimizer's slabs and of its two worklists through every struct field and
// array element, and fails on anything that refers to memory elsewhere: a
// pointer, slice, map, interface, func, chan or string. Every reference
// inside the state is an index, so copying the slabs copies the optimizer,
// and the garbage collector never scans them.
func TestOptimizerStateIsPointerFree(t *testing.T) {
	fields := 0
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Struct:
			for i := range ty.NumField() {
				f := ty.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[i]", ty.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
			reflect.Interface, reflect.Func, reflect.Chan, reflect.String:
			t.Errorf("%s is a %s (%s)", path, ty.Kind(), ty)
		default:
			fields++
		}
	}
	st := reflect.TypeOf(slabs{})
	for i := range st.NumField() {
		f := st.Field(i)
		walk(f.Name+"[i]", f.Type.Elem())
	}
	walk("rankQueue.cells[i]", reflect.TypeOf(rankQueue{}.cells).Elem())
	walk("expansions.items[i]", reflect.TypeOf(expansions{}.items).Elem())
	if fields == 0 {
		t.Fatal("walked no field")
	}
	t.Logf("%d slabs and 2 worklists: %d scalar fields", st.NumField(), fields)
}
