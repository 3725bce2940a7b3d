// Command ttalint runs the repository's static-analysis suite — the three
// contract analyzers in internal/lint — over the packages matching the
// given go-list patterns (default ./...).
//
//	ttalint [-json] [-run determinism,nestedpar,panicsafe] [patterns...]
//
// It exits 0 when the tree is clean, 1 when there are findings, and 2 on
// usage or load errors. Findings are suppressible inline with
// `//ttalint:ok <analyzer> <justification>`; unjustified or stale
// suppressions are themselves findings, so a clean exit means every
// exception in the tree is explained.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"edgetta/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array")
	run := flag.String("run", "", "comma-separated analyzer subset (default: all)")
	list := flag.Bool("list", false, "list the analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: ttalint [-json] [-run a,b] [-list] [patterns...]\n\nanalyzers:\n")
		for _, a := range lint.All() {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers, err := lint.ByName(*run)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		flag.Usage()
		os.Exit(2)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := lint.Load(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	diags := lint.Run(pkgs, analyzers)
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			names := make([]string, len(analyzers))
			for i, a := range analyzers {
				names[i] = a.Name
			}
			fmt.Fprintf(os.Stderr, "ttalint: %d finding(s) across %d package(s) [%s]\n",
				len(diags), len(pkgs), strings.Join(names, ","))
		}
		os.Exit(1)
	}
}
