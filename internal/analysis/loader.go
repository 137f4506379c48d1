package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the package's import path (synthetic for testdata fixtures).
	Path string
	// Dir is the directory the package was loaded from.
	Dir string
	// Fset positions all files of the load.
	Fset *token.FileSet
	// Files are the parsed non-test source files.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info holds the type-checker's expression and object facts.
	Info *types.Info

	ignores []ignoreDirective
}

// Loader loads and type-checks packages of one module. It memoizes by
// directory, so shared dependencies are checked once.
type Loader struct {
	// ModuleRoot is the absolute directory containing go.mod.
	ModuleRoot string
	// ModulePath is the module path declared in go.mod.
	ModulePath string
	// Fset positions every file parsed by this loader.
	Fset *token.FileSet

	pkgs    map[string]*Package // by absolute directory
	loading map[string]bool     // import-cycle guard, by absolute directory
	std     types.Importer
}

// NewLoader creates a loader for the module containing dir. It locates
// go.mod by walking up from dir and reads the module path from it.
func NewLoader(dir string) (*Loader, error) {
	root, path, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		ModuleRoot: root,
		ModulePath: path,
		Fset:       fset,
		pkgs:       make(map[string]*Package),
		loading:    make(map[string]bool),
		std:        importer.ForCompiler(fset, "source", nil),
	}, nil
}

// findModule walks up from dir to the nearest go.mod and returns the module
// root directory and module path.
func findModule(dir string) (root, path string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, rerr := os.ReadFile(filepath.Join(d, "go.mod"))
		if rerr == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("analysis: %s/go.mod has no module line", d)
		}
		if parent := filepath.Dir(d); parent == d {
			return "", "", fmt.Errorf("analysis: no go.mod above %s", abs)
		}
	}
}

// importPathFor maps an absolute package directory inside the module to its
// import path. Directories under testdata get a synthetic path.
func (l *Loader) importPathFor(dir string) string {
	rel, err := filepath.Rel(l.ModuleRoot, dir)
	if err != nil || rel == "." {
		return l.ModulePath
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel)
}

// dirForImport maps an intra-module import path to its directory.
func (l *Loader) dirForImport(path string) string {
	if path == l.ModulePath {
		return l.ModuleRoot
	}
	rel := strings.TrimPrefix(path, l.ModulePath+"/")
	return filepath.Join(l.ModuleRoot, filepath.FromSlash(rel))
}

// Import implements types.Importer: module-internal paths load recursively
// from source; everything else is delegated to the stdlib source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		pkg, err := l.LoadDir(l.dirForImport(path))
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// LoadDir parses and type-checks the package in dir (non-test files only),
// memoized. Test files are excluded: the analyzers enforce production-code
// invariants, and rules like droppederr deliberately do not apply to tests.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	if pkg, ok := l.pkgs[abs]; ok {
		return pkg, nil
	}
	if l.loading[abs] {
		return nil, fmt.Errorf("analysis: import cycle through %s", abs)
	}
	l.loading[abs] = true
	defer delete(l.loading, abs)

	entries, err := os.ReadDir(abs)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no Go source files in %s", abs)
	}

	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(abs, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	path := l.importPathFor(abs)
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}

	pkg := &Package{
		Path:  path,
		Dir:   abs,
		Fset:  l.Fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}
	pkg.ignores = collectIgnores(l.Fset, files)
	l.pkgs[abs] = pkg
	return pkg, nil
}

// LoadAll loads every package under root (which must lie inside the
// module), skipping testdata, hidden, and Go-ignored directories and, as
// the go command's ./... does, nested modules (directories with their own
// go.mod). It returns the packages sorted by import path.
func (l *Loader) LoadAll(root string) ([]*Package, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	var dirs []string
	err = filepath.WalkDir(abs, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != abs && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); p != abs && err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") && !strings.HasSuffix(p, "_test.go") {
			dir := filepath.Dir(p)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, dir := range dirs {
		pkg, err := l.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}
