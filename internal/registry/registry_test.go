package registry

import (
	"reflect"
	"strings"
	"testing"
)

func TestNamed(t *testing.T) {
	r := Named[int]{Pkg: "menu", Kind: "dish", Default: "RR"}
	for i, name := range []string{"RR", "ICOUNT+BRCOUNT", "gshare.noret", "x-1_y"} {
		if err := r.Register(name, i); err != nil {
			t.Fatal(err)
		}
	}
	for _, bad := range []string{"", "1st", "+x", "has space", "é", strings.Repeat("a", 65), "RR"} {
		err := r.Register(bad, 99)
		if err == nil || !strings.HasPrefix(err.Error(), "menu: dish ") {
			t.Errorf("Register(%q) = %v, want a \"menu: dish\" error", bad, err)
		}
	}
	if got := r.Names(); !reflect.DeepEqual(got, []string{"RR", "ICOUNT+BRCOUNT", "gshare.noret", "x-1_y"}) {
		t.Errorf("Names() = %v: not registration order, or a rejected name landed", got)
	}
	if v, ok := r.Lookup(""); !ok || v != 0 {
		t.Errorf("empty name resolved to %d, %t; want the default entry", v, ok)
	}
	if v, ok := r.Lookup("gshare.noret"); !ok || v != 2 {
		t.Errorf("Lookup = %d, %t", v, ok)
	}
	if _, ok := r.Lookup("rr"); ok {
		t.Error("names must be case-sensitive")
	}
}
