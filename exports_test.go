package amber_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testSeams are the exported functions and methods that no program calls
// but that other packages' tests, the examples or a reference comparison
// need. Each is keyed "pkg.Func" or "pkg.Type.Method" (pkg is the
// package's directory name) and says who needs it.
var testSeams = map[string]string{
	"config.SmallTestDevice":         "the small device core's tests, the root work gates and three examples build",
	"core.System.PayloadBytes":       "TestWorkGateBatchRW8kData pins the payload bytes a request moves",
	"cpu.Complex.ExecuteAny":         "the unmemoised charge cpu's and host's reference tests hold compiled charges to",
	"cpu.Complex.ModuleInstructions": "the root cached-read work gate pins hil's and icl's instructions",
	"cpu.Complex.Modules":            "core's tests check which firmware modules a run charged",
	"fil.PlanFault.Unwrap":           "errors.Is and errors.As call it",
	"ftl.Cert.Certified":             "fil's tests check a plan was certified",
	"ftl.FTL.CheckInvariants":        "ftl's fuzz and compaction tests check the mapping after every step",
	"ftl.FTL.ForceReadOnly":          "core's fault tests latch the drive read-only at a chosen moment",
	"ftl.FTL.FreeSuperBlocks":        "ftl's link test checks its stream drained the free pool",
	"ftl.FTL.Trim":                   "ftl's tests interleave TRIMs with writes",
	"ftl.FTL.ValidSubs":              "fil's tests pick super-blocks by their valid count",
	"icl.Cache.PayloadBytes":         "TestWorkGateBatchRW8kData pins the payload bytes a request moves",
	"icl.Cache.ResidentLines":        "core's snapshot test counts resident lines",
	"nand.FaultError.Unwrap":         "errors.Is and errors.As call it",
	"nand.Flash.Buffers":             "core's pin tests poison the staging pool",
	"nand.Flash.ChannelStats":        "core's trajectory test checks per-channel counters",
	"nand.Flash.FaultSites":          "core's fault goldens print the fault-site log",
	"nand.Flash.PayloadBytes":        "TestWorkGateBatchRW8kData pins the payload bytes a request moves",
	"nand.Flash.PinsTaken":           "TestWorkGateBatchRW8kData logs the pages prefetches pinned",
	"nand.Flash.Erase":               "fil's, ftl's and nand's tests erase single blocks",
	"nand.Flash.Program":             "fil's and nand's tests program single pages",
	"nand.Flash.Read":                "fil's, ftl's and nand's tests read single pages back",
	"nand.Flash.TamperOOB":           "nand's OOB tests and ftl's mount fuzzer corrupt page metadata",
	"nand.Flash.WriteSeq":            "ftl's compaction test checks sequence stamps",
	"nand.Geometry.AddressOfPage":    "nand's tests turn page indices back into addresses",
	"sim.Engine.RunUntil":            "fil's, nand's and sim's tests drain the engine to a time",
	"stats.Latency.Count":            "core's and stats' tests count recorded samples",
	"stats.Latency.Min":              "stats' fuzzer holds it to a sorted reference",
}

// TestExportsHaveCallers fails when an exported function or method declared
// in a non-test file under internal/ or cmd/ has no caller in any non-test
// file or in any bench/ file: an API only its own unit tests call
// is dead code with a test attached. Callers are resolved with go/types, so
// a use names one declaration, never every method of its name. A function's
// own recursive calls name nothing. A method also counts as called when an
// interface method it implements is called, and Error and String methods
// count as called through fmt.
func TestExportsHaveCallers(t *testing.T) {
	l := newLoader()
	var declared []*types.Func
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		p = filepath.ToSlash(p)
		switch {
		case p == "bench":
			_, err = l.load("amber/bench", p, true)
			return filepath.SkipDir
		case p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata"):
			return filepath.SkipDir
		}
		pkg, err := l.load(path.Join("amber", p), p, false)
		if err != nil || pkg == nil || !strings.HasPrefix(p, "internal/") && !strings.HasPrefix(p, "cmd/") {
			return err
		}
		for _, f := range l.files[pkg] {
			for _, dl := range f.Decls {
				if fd, ok := dl.(*ast.FuncDecl); ok && fd.Name.IsExported() {
					declared = append(declared, l.info.Defs[fd.Name].(*types.Func))
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	called := map[*types.Func]bool{}
	var viaInterface []*types.Func // interface methods something calls
	for _, files := range l.files {
		for _, f := range files {
			for _, dl := range f.Decls {
				var self types.Object // a function's own recursion names nothing
				if fd, ok := dl.(*ast.FuncDecl); ok {
					self = l.info.Defs[fd.Name]
				}
				ast.Inspect(dl, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					fn, ok := l.info.Uses[id].(*types.Func)
					if !ok || fn == self {
						return true
					}
					fn = fn.Origin()
					called[fn] = true
					if recv := fn.Signature().Recv(); recv != nil && types.IsInterface(recv.Type()) {
						viaInterface = append(viaInterface, fn)
					}
					return true
				})
			}
		}
	}
	implicit := func(fn *types.Func) bool {
		recv := fn.Signature().Recv()
		if recv == nil {
			return false
		}
		for _, im := range viaInterface {
			iface := im.Signature().Recv().Type().Underlying().(*types.Interface)
			if im.Name() == fn.Name() && (types.Implements(recv.Type(), iface) || types.Implements(types.NewPointer(recv.Type()), iface)) {
				return true
			}
		}
		sig := fn.Signature()
		return (fn.Name() == "Error" || fn.Name() == "String") && sig.Params().Len() == 0 &&
			sig.Results().Len() == 1 && types.Identical(sig.Results().At(0).Type(), types.Typ[types.String])
	}

	keys := map[string]bool{}
	var dead []string
	for _, fn := range declared {
		key := path.Base(fn.Pkg().Path()) + "." + fn.Name()
		if recv := fn.Signature().Recv(); recv != nil {
			rt := recv.Type()
			if p, ok := rt.(*types.Pointer); ok {
				rt = p.Elem()
			}
			key = path.Base(fn.Pkg().Path()) + "." + rt.(*types.Named).Obj().Name() + "." + fn.Name()
		}
		keys[key] = true
		live := called[fn] || implicit(fn)
		_, seam := testSeams[key]
		switch {
		case !live && !seam:
			dead = append(dead, l.fset.Position(fn.Pos()).String()+": "+key)
		case live && seam:
			t.Errorf("%s: %s is called outside tests now; drop it from testSeams", l.fset.Position(fn.Pos()), key)
		}
	}
	for key := range testSeams {
		if !keys[key] {
			t.Errorf("testSeams lists %s, which no longer exists", key)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s has no caller outside its own tests: delete it, or list it in testSeams with a reason", d)
	}
	t.Logf("test seams: %d", len(testSeams))
}

// loader type-checks the module's packages from source, sharing one
// types.Info, so a use anywhere resolves to the one object its declaration
// defines. Packages outside the module come from the standard library's
// source importer.
type loader struct {
	fset  *token.FileSet
	std   types.ImporterFrom
	info  *types.Info
	pkgs  map[string]*types.Package
	files map[*types.Package][]*ast.File // the non-test files, bench's tests too
}

func newLoader() *loader {
	fset := token.NewFileSet()
	return &loader{
		fset:  fset,
		std:   importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		info:  &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
		pkgs:  map[string]*types.Package{},
		files: map[*types.Package][]*ast.File{},
	}
}

func (l *loader) Import(path string) (*types.Package, error) { return l.ImportFrom(path, ".", 0) }

func (l *loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if rel, ok := strings.CutPrefix(path, "amber/"); ok {
		return l.load(path, rel, false)
	}
	return l.std.ImportFrom(path, dir, mode)
}

// load type-checks the package in dir once, from its non-test files and,
// with tests set, its in-package test files; nil when dir holds none.
func (l *loader) load(path, dir string, tests bool) (*types.Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	bp, err := build.ImportDir(dir, 0)
	if _, none := err.(*build.NoGoError); none {
		return nil, nil
	} else if err != nil {
		return nil, err
	}
	names := bp.GoFiles
	if tests {
		names = append(names, bp.TestGoFiles...)
	}
	if len(names) == 0 {
		return nil, nil
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path], l.files[pkg] = pkg, files
	return pkg, nil
}
