package amber_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
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
	"cpu.Complex.AveragePowerW":      "the mobile example prints each component's power",
	"cpu.Complex.ExecuteAny":         "the unmemoised charge cpu's and host's reference tests hold compiled charges to",
	"cpu.Complex.ModuleInstructions": "the root cached-read work gate pins hil's and icl's instructions",
	"cpu.Complex.Modules":            "core's tests check which firmware modules a run charged",
	"dram.DRAM.AveragePowerW":        "the mobile example prints each component's power",
	"exp.Figure10":                   "the root BenchmarkFigure10 and exp's tests run the figure alone",
	"exp.Figure3":                    "the root BenchmarkFigure3 and exp's tests run the figure alone",
	"exp.Figure4":                    "the root BenchmarkFigure4 and exp's tests run the figure alone",
	"exp.Figure8":                    "the root BenchmarkFigure8 and exp's tests run the figure alone",
	"exp.Figure9":                    "the root BenchmarkFigure9 and exp's tests run the figure alone",
	"fil.PlanFault.Unwrap":           "errors.Is and errors.As call it",
	"ftl.Cert.Certified":             "fil's tests check a plan was certified",
	"ftl.FTL.CheckInvariants":        "ftl's fuzz and compaction tests check the mapping after every step",
	"ftl.FTL.ForceReadOnly":          "core's fault tests latch the drive read-only at a chosen moment",
	"ftl.FTL.FreeSuperBlocks":        "ftl's link test checks its stream drained the free pool",
	"ftl.FTL.Lookup":                 "fil's tests look a super-page up to read it back",
	"ftl.FTL.Trim":                   "ftl's tests interleave TRIMs with writes",
	"ftl.FTL.ValidSubs":              "fil's tests pick super-blocks by their valid count",
	"icl.Cache.PayloadBytes":         "TestWorkGateBatchRW8kData pins the payload bytes a request moves",
	"icl.Cache.ResidentLines":        "core's snapshot test counts resident lines",
	"nand.FaultError.Unwrap":         "errors.Is and errors.As call it",
	"nand.Flash.AveragePowerW":       "the mobile example prints each component's power",
	"nand.Flash.Buffers":             "core's pin tests poison the staging pool",
	"nand.Flash.ChannelStats":        "core's trajectory test checks per-channel counters",
	"nand.Flash.FaultSites":          "core's fault goldens print the fault-site log",
	"nand.Flash.PayloadBytes":        "TestWorkGateBatchRW8kData pins the payload bytes a request moves",
	"nand.Flash.PinsTaken":           "TestWorkGateBatchRW8kData logs the pages prefetches pinned",
	"nand.Flash.Program":             "fil's and nand's tests program single pages",
	"nand.Flash.TamperOOB":           "nand's OOB tests and ftl's mount fuzzer corrupt page metadata",
	"nand.Flash.WriteSeq":            "ftl's compaction test checks sequence stamps",
	"nand.Geometry.AddressOfPage":    "nand's tests turn page indices back into addresses",
	"sim.Engine.At":                  "core's data-path tests schedule callbacks at absolute times",
	"sim.Engine.DomainName":          "sim's order fuzzer checks domain stats against its reference",
	"sim.Engine.NumDomains":          "sim's order fuzzer checks domain stats against its reference",
	"sim.Engine.RunUntil":            "fil's, nand's and sim's tests drain the engine to a time",
	"sim.Engine.Schedule":            "sim's tests schedule in the default domain",
	"stats.Latency.Count":            "core's and stats' tests count recorded samples",
	"stats.Latency.Min":              "stats' fuzzer holds it to a sorted reference",
}

// TestExportsHaveCallers fails when an exported function or method declared
// in a non-test file under internal/ or cmd/ is named by no other non-test
// file and no bench/ file: an API only its own unit tests call is dead code
// with a test attached. A function is named by a bare identifier in its own
// package (its own recursive calls aside) or by a selector on its package's
// import name; a method, whose receiver type a parser cannot resolve, by any
// selector of its name, so a dead method that shares a common name escapes.
func TestExportsHaveCallers(t *testing.T) {
	type decl struct {
		key string // as in testSeams
		ref string // what naming it records: "pkg.Func" or "Method"
		pos token.Position
	}
	var decls []decl
	named := map[string]bool{} // "pkg.Func" and "Method" keys that something names
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		p = filepath.ToSlash(p)
		inBench := strings.HasPrefix(p, "bench/")
		if !strings.HasSuffix(p, ".go") || (strings.HasSuffix(p, "_test.go") && !inBench) {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := path.Base(path.Dir(p))
		declared := strings.HasPrefix(p, "internal/") || strings.HasPrefix(p, "cmd/")
		imports := map[string]string{} // local name -> imported package's directory name
		for _, s := range f.Imports {
			ip, _ := strconv.Unquote(s.Path.Value)
			local := path.Base(ip)
			if s.Name != nil {
				local = s.Name.Name
			}
			imports[local] = path.Base(ip)
		}
		for _, dl := range f.Decls {
			var body ast.Node = dl
			self := "" // a plain function's own name: its recursion names nothing
			if fd, ok := dl.(*ast.FuncDecl); ok {
				name := fd.Name.Name
				if fd.Recv == nil {
					self = name
				}
				if declared && ast.IsExported(name) {
					d := decl{pkg + "." + name, pkg + "." + name, fset.Position(fd.Name.Pos())}
					if fd.Recv != nil {
						d.key, d.ref = pkg+"."+recvName(fd.Recv.List[0].Type)+"."+name, name
					}
					decls = append(decls, d)
				}
				if fd.Body == nil {
					continue
				}
				body = fd.Body
			}
			var visit func(ast.Node) bool
			visit = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					named[n.Sel.Name] = true
					if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
						named[imports[x.Name]+"."+n.Sel.Name] = true
					} else {
						ast.Inspect(n.X, visit) // n.Sel is no bare identifier
					}
					return false
				case *ast.Ident:
					if n.Name != self {
						named[pkg+"."+n.Name] = true
					}
				}
				return true
			}
			ast.Inspect(body, visit)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	var dead []string
	for _, d := range decls {
		declared[d.key] = true
		_, seam := testSeams[d.key]
		switch {
		case !named[d.ref] && !seam:
			dead = append(dead, d.pos.String()+": "+d.key)
		case named[d.ref] && seam:
			t.Errorf("%s: %s is called outside tests now; drop it from testSeams", d.pos, d.key)
		}
	}
	for key := range testSeams {
		if !declared[key] {
			t.Errorf("testSeams lists %s, which no longer exists", key)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s has no caller outside its own tests: delete it, or list it in testSeams with a reason", d)
	}
}

// recvName is the type name of a method receiver: T for T, *T, T[P] or *T[P].
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
