package analysis

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// loadFixture type-checks one fixture package under testdata/src.
func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := l.LoadDir(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", name, err)
	}
	return pkg
}

// render flattens diagnostics to "file.go:line:col: message" with the
// directory stripped, the golden form used below.
func render(diags []Diagnostic) []string {
	var out []string
	for _, d := range diags {
		out = append(out, fmt.Sprintf("%s:%d:%d: %s", filepath.Base(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Message))
	}
	return out
}

// TestAnalyzersGolden proves each analyzer fires on every planted
// violation, with the exact position and message, and stays silent on the
// correct and suppressed functions in the same fixture.
func TestAnalyzersGolden(t *testing.T) {
	tests := []struct {
		rule string
		want []string
	}{
		{
			rule: "pinflow",
			want: []string{
				`pinflow.go:15:12: frame "f" pinned by Pool.Get is unpinned on some paths but leaks on others`,
				`pinflow.go:28:12: frame "f" pinned by Pool.Get is never unpinned in this function`,
				`pinflow.go:38:2: frame pinned by Pool.Allocate is discarded; it can never be unpinned`,
			},
		},
		{
			rule: "snapflow",
			want: []string{
				`snapflow.go:17:8: snapshot "sn" from Store.Snapshot is never released in this function`,
				`snapflow.go:23:8: snapshot "sn" from Store.Snapshot is released on some paths but leaks on others`,
				`snapflow.go:34:2: snapshot from Store.Snapshot is discarded; its manifest refcount can never be released`,
			},
		},
		{
			rule: "arenaescape",
			want: []string{
				`arenaescape.go:25:12: slab-backed tuple "ts" (from DecodeBlockArena) stored into a field; arena memory is recycled on Reset — Clone() it first`,
				`arenaescape.go:35:12: slab-backed tuple "ts" (from DecodeBlockArena) stored into a field; arena memory is recycled on Reset — Clone() it first`,
				`arenaescape.go:42:11: slab-backed tuple "tu" (from Arena.Tuple) sent on a channel; arena memory is recycled on Reset — Clone() it first`,
				`arenaescape.go:52:11: slab-backed tuple "u" (from DecodeBlockArena) stored into a field; arena memory is recycled on Reset — Clone() it first`,
				`arenaescape.go:69:12: slab-backed tuple "ts" (from DecodeBlockArena) stored into a field; arena memory is recycled on Reset — Clone() it first`,
				`arenaescape.go:146:11: arena-backed φ slab "phis" (from ReadPhis) stored into a field; arena memory is recycled on Reset — copy the ordinals out first`,
				`arenaescape.go:157:11: arena-backed φ slab "tail" (from DecodeBlockPhis) stored into a field; arena memory is recycled on Reset — copy the ordinals out first`,
				`arenaescape.go:164:11: arena-backed φ slab "phis" (from Arena.Phis) sent on a channel; arena memory is recycled on Reset — copy the ordinals out first`,
			},
		},
		{
			rule: "ctxflow",
			want: []string{
				`ctxflow.go:20:23: context.Background() inside a function that already has a ctx parameter; thread "ctx" instead`,
				`ctxflow.go:26:23: context.TODO() severs cancellation from every caller; accept a ctx parameter instead`,
				`ctxflow.go:32:23: context.Background() severs cancellation from every caller; accept a ctx parameter instead`,
				`ctxflow.go:38:9: call to Scan drops the in-scope ctx; use ScanContext instead`,
				`ctxflow.go:49:2: loop reads blocks but never consults "ctx"; check ctx.Err() between iterations or use a Context-aware read`,
			},
		},
		{
			rule: "framealias",
			want: []string{
				`framealias.go:20:9: use of "d", a Frame.Data() slice of frame "f", after the frame's Unpin`,
				`framealias.go:32:13: Frame.Data() called on frame "f" after its Unpin`,
			},
		},
		{
			rule: "lockbalance",
			want: []string{
				`lockbalance.go:16:2: g.mu.Lock() has 1 lock call(s) but only 0 unlock call(s) in this function`,
				`lockbalance.go:27:2: g.rw.RLock() has 1 lock call(s) but only 0 unlock call(s) in this function`,
			},
		},
		{
			rule: "droppederr",
			want: []string{
				`droppederr.go:22:2: dropped error: result of c.Close is discarded`,
				`droppederr.go:27:2: dropped error: result of fail assigned to _`,
				`droppederr.go:32:2: dropped error: final result of pair assigned to _`,
			},
		},
		{
			rule: "errwrap",
			want: []string{
				`errwrap.go:16:9: fmt.Errorf formats error err without %w; wrap it or annotate the deliberate flattening`,
				`errwrap.go:21:9: fmt.Errorf formats error err without %w; wrap it or annotate the deliberate flattening`,
				`errwrap.go:26:9: fmt.Errorf formats error err without %w; wrap it or annotate the deliberate flattening`,
			},
		},
		{
			rule: "ordwidth",
			want: []string{
				`ordwidth.go:7:9: conversion to uint32 narrows 64-bit arithmetic result "a + b" to 32 bits; compute in the narrow type or mask explicitly`,
				`ordwidth.go:12:9: conversion to byte narrows 64-bit arithmetic result "x * y" to 8 bits; compute in the narrow type or mask explicitly`,
				`ordwidth.go:17:9: conversion to uint16 narrows 64-bit arithmetic result "n << 4" to 16 bits; compute in the narrow type or mask explicitly`,
				`ordwidth.go:22:9: conversion to int8 narrows 64-bit arithmetic result "hi - lo" to 8 bits; compute in the narrow type or mask explicitly`,
				`ordwidth.go:67:9: conversion to uint32 narrows "x >> halfShift" to 32 bits but the shift leaves 48 significant bits; shift further or mask explicitly`,
				`ordwidth.go:72:9: conversion to uint16 narrows "x & digitMask" to 16 bits but the mask spans 17 bits; tighten the mask to the target width`,
			},
		},
	}
	for _, tt := range tests {
		t.Run(tt.rule, func(t *testing.T) {
			a := Lookup(tt.rule)
			if a == nil {
				t.Fatalf("rule %q not registered", tt.rule)
			}
			pkg := loadFixture(t, tt.rule)
			got := render(RunAnalyzers(pkg, []*Analyzer{a}))
			if len(got) != len(tt.want) {
				t.Fatalf("got %d diagnostics, want %d:\ngot:  %s\nwant: %s",
					len(got), len(tt.want), strings.Join(got, "\n      "), strings.Join(tt.want, "\n      "))
			}
			for i := range got {
				if got[i] != tt.want[i] {
					t.Errorf("diagnostic %d:\ngot:  %s\nwant: %s", i, got[i], tt.want[i])
				}
			}
		})
	}
}

// TestPinflowSubsumesUnpinpair runs pinflow over the retired unpinpair
// rule's fixture: every defect the old flow-insensitive rule caught is
// still caught, at the same position with the same message. (The fixture's
// suppression directive names the old rule, so its planted leak surfaces
// here too — under pinflow it needs an updated directive.) The leak class
// pinflow adds on top — unpinned on one branch, leaked on another, which
// unpinpair's "any Unpin anywhere" check was blind to — is pinned down by
// the branchLeak case of the pinflow golden fixture above.
func TestPinflowSubsumesUnpinpair(t *testing.T) {
	pkg := loadFixture(t, "unpinpair")
	got := render(RunAnalyzers(pkg, []*Analyzer{Lookup("pinflow")}))
	want := []string{
		`unpinpair.go:12:12: frame "f" pinned by Pool.Get is never unpinned in this function`,
		`unpinpair.go:21:2: frame pinned by Pool.Allocate is discarded; it can never be unpinned`,
		`unpinpair.go:26:12: frame pinned by Pool.Get is discarded; it can never be unpinned`,
		`unpinpair.go:32:12: frame "f" pinned by Pool.Get is never unpinned in this function`,
	}
	if len(got) != len(want) {
		t.Fatalf("got %d diagnostics, want %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("diagnostic %d:\ngot:  %s\nwant: %s", i, got[i], want[i])
		}
	}
}

// TestSuppression checks the directive machinery directly: same line,
// preceding line, rule mismatch, and the "all" wildcard.
func TestSuppression(t *testing.T) {
	pkg := &Package{ignores: []ignoreDirective{
		{file: "a.go", line: 10, rule: "unpinpair"},
		{file: "a.go", line: 20, rule: "all"},
	}}
	cases := []struct {
		file string
		line int
		rule string
		want bool
	}{
		{"a.go", 10, "unpinpair", true},  // same line
		{"a.go", 11, "unpinpair", true},  // line below the directive
		{"a.go", 12, "unpinpair", false}, // too far
		{"a.go", 10, "droppederr", false},
		{"b.go", 10, "unpinpair", false}, // other file
		{"a.go", 20, "ordwidth", true},   // wildcard
		{"a.go", 21, "lockbalance", true},
	}
	for _, c := range cases {
		got := pkg.suppressed(c.rule, token.Position{Filename: c.file, Line: c.line})
		if got != c.want {
			t.Errorf("suppressed(%s, %s:%d) = %v, want %v", c.rule, c.file, c.line, got, c.want)
		}
	}
}

// TestValidateIgnores checks that directives naming unknown rules are
// surfaced (a typo suppresses nothing, silently) while registered rules
// and the "all" wildcard pass.
func TestValidateIgnores(t *testing.T) {
	pkg := &Package{ignores: []ignoreDirective{
		{file: "a.go", line: 4, col: 2, rule: "pinflow"},
		{file: "a.go", line: 9, col: 30, rule: "unpinpair"}, // retired name
		{file: "b.go", line: 1, col: 1, rule: "all"},
		{file: "b.go", line: 7, col: 1, rule: "pinfow"}, // typo
	}}
	known := func(rule string) bool { return Lookup(rule) != nil }
	got := render(ValidateIgnores(pkg, known))
	want := []string{
		`a.go:9:30: //avqlint:ignore names unknown rule "unpinpair"; run avqlint -list for the rule set`,
		`b.go:7:1: //avqlint:ignore names unknown rule "pinfow"; run avqlint -list for the rule set`,
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("got:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestSuppressionForms proves both directive placements end to end on real
// fixtures: the pinflow fixture suppresses with a trailing same-line
// comment, the ctxflow fixture with a standalone comment on the line
// above. Both planted defects must stay silent under their rule.
func TestSuppressionForms(t *testing.T) {
	for rule, fn := range map[string]string{"pinflow": "suppressedBranchLeak", "ctxflow": "suppressed"} {
		pkg := loadFixture(t, rule)
		for _, d := range RunAnalyzers(pkg, []*Analyzer{Lookup(rule)}) {
			t.Logf("%s: %s", rule, d)
		}
		// The golden test already pins the exact surviving set; here we
		// additionally prove the suppressed function's directive parsed.
		found := false
		for _, ig := range pkg.ignores {
			if ig.rule == rule {
				found = true
			}
		}
		if !found {
			t.Errorf("%s fixture: no parsed //avqlint:ignore directive for %s in %s", rule, rule, fn)
		}
	}
}

// TestRegistry checks the full analyzer set is registered and named.
func TestRegistry(t *testing.T) {
	want := []string{"arenaescape", "ctxflow", "droppederr", "errwrap", "framealias", "lockbalance", "ordwidth", "pinflow", "snapflow"}
	var got []string
	for _, a := range Registry() {
		got = append(got, a.Name)
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q missing doc or run", a.Name)
		}
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("registry = %v, want %v", got, want)
	}
	if Lookup("nosuchrule") != nil {
		t.Error("Lookup of unknown rule should be nil")
	}
}

// TestLoader checks module resolution, type-checking, and test-file
// exclusion.
func TestLoader(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	if l.ModulePath != "repro" {
		t.Errorf("module path = %q, want repro", l.ModulePath)
	}
	pkg, err := l.LoadDir(".")
	if err != nil {
		t.Fatalf("LoadDir(.): %v", err)
	}
	if pkg.Path != "repro/internal/analysis" {
		t.Errorf("path = %q", pkg.Path)
	}
	if pkg.Types == nil || pkg.Info == nil || len(pkg.Files) == 0 {
		t.Fatal("package not fully populated")
	}
	for _, f := range pkg.Files {
		name := l.Fset.Position(f.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			t.Errorf("test file %s was loaded", name)
		}
	}
	// Loading twice returns the memoized package.
	again, err := l.LoadDir(".")
	if err != nil {
		t.Fatalf("second LoadDir: %v", err)
	}
	if again != pkg {
		t.Error("LoadDir did not memoize")
	}
	// A fixture importing module-internal packages resolves through the
	// loader's importer.
	fix, err := l.LoadDir(filepath.Join("testdata", "src", "unpinpair"))
	if err != nil {
		t.Fatalf("fixture load: %v", err)
	}
	if !strings.Contains(fix.Path, "testdata") {
		t.Errorf("fixture path %q should be synthetic under testdata", fix.Path)
	}
}

// TestLoadAllSkipsNestedModules checks LoadAll stops at a nested go.mod
// the way the go command's ./... does: the nested module's package (here
// one that does not even type-check) is not part of the walk.
func TestLoadAllSkipsNestedModules(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod":           "module outer\n\ngo 1.22\n",
		"a/a.go":           "package a\n\nfunc A() int { return 1 }\n",
		"nested/go.mod":    "module nested\n\ngo 1.22\n",
		"nested/b/b.go":    "package b\n\nfunc B() int { return undefined }\n",
		"nested/nested.go": "package nested\n",
	}
	for name, body := range files {
		p := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := l.LoadAll(root)
	if err != nil {
		t.Fatalf("LoadAll: %v", err)
	}
	var paths []string
	for _, p := range pkgs {
		paths = append(paths, p.Path)
	}
	if len(paths) != 1 || paths[0] != "outer/a" {
		t.Fatalf("LoadAll loaded %v, want [outer/a]", paths)
	}
}
