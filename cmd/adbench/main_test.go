package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"adcache"
	"adcache/internal/core"
	"adcache/internal/harness"
	"adcache/internal/lsm"
	"adcache/internal/rl"
)

var update = flag.Bool("update", false, "rewrite testdata/options_surface.golden from the running code")

// optionsSurface lists every settable value: the exported fields of the
// config structs, one per line in declaration order, then adbench's flags.
func optionsSurface() string {
	var b strings.Builder
	for _, v := range []any{adcache.Options{}, core.Config{}, lsm.Options{}, rl.Config{}, harness.Config{}} {
		typ := reflect.TypeOf(v)
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				fmt.Fprintf(&b, "%s.%s\n", typ, f.Name)
			}
		}
	}
	fs := flag.NewFlagSet("adbench", flag.ContinueOnError)
	new(options).register(fs)
	fs.VisitAll(func(f *flag.Flag) { fmt.Fprintf(&b, "adbench -%s\n", f.Name) })
	return b.String()
}

// TestOptionsSurface pins the settable values so that a knob is added only
// on purpose: regenerate with -update when one is, and say in the change
// what sets it.
func TestOptionsSurface(t *testing.T) {
	path := filepath.Join("testdata", "options_surface.golden")
	got := optionsSurface()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("settable values changed (rerun with -update if on purpose)\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestExperimentNames checks that every -exp name is unique and that all
// covers the paper's figures.
func TestExperimentNames(t *testing.T) {
	seen := map[string]bool{}
	var all []string
	for _, e := range experiments() {
		if seen[e.name] {
			t.Errorf("duplicate experiment %q", e.name)
		}
		seen[e.name] = true
		if e.all {
			all = append(all, e.name)
		}
	}
	if got, want := strings.Join(all, " "), "table2 fig1 fig6 fig7 fig8 fig9 fig10 fig11a fig11b ablations"; got != want {
		t.Errorf("-exp all runs %q, want %q", got, want)
	}
}
