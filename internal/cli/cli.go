// Package cli is the one front end of the sweep commands — campaign,
// bisect and tourney. It defines each shared flag once, parses the
// dimension overrides, runs every mode (-merge, -shard i/n,
// -incremental, a plain run) on campaign.RunScenariosCtx under one
// SIGINT/SIGTERM context, exports -trace-out, and writes the artifact
// and the byte-exact -baseline verdict. Its exit helpers serve
// cmd/explain and cmd/benchjson too, so every command means the same by
// exit codes 1, 2 and 3.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
)

// The exit codes every command shares; 0 is success.
const (
	// ExitRuntime is a runtime or IO failure, including an unreadable
	// baseline.
	ExitRuntime = 1
	// ExitUsage is a bad invocation, as for a flag parse error.
	ExitUsage = 2
	// ExitRegression is an artifact that differs from its baseline, so
	// CI can tell "the model changed" from "the invocation is broken".
	ExitRegression = 3
)

// Cmd is a command's name. Its methods print "<name>: <message>" lines
// to stderr.
type Cmd string

// Fatalf reports a runtime failure and exits ExitRuntime.
func (c Cmd) Fatalf(format string, args ...any) { c.exit(ExitRuntime, format, args...) }

// Usagef reports a bad invocation and exits ExitUsage.
func (c Cmd) Usagef(format string, args ...any) { c.exit(ExitUsage, format, args...) }

func (c Cmd) exit(code int, format string, args ...any) {
	// Library errors may already carry the command's name as their
	// package prefix.
	c.logf("%s", strings.TrimPrefix(fmt.Sprintf(format, args...), string(c)+": "))
	os.Exit(code)
}

// logf prints one progress line to stderr.
func (c Cmd) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "%s: %s\n", c, fmt.Sprintf(format, args...))
}

// Float defines a float64 flag on flag.CommandLine that, like -scale
// and -horizon, must be finite and >= 0 (0 meaning "default"). A bad
// value exits ExitUsage with the usage text.
func Float(name, usage string) *float64 {
	p := new(float64)
	flag.Var(number[float64]{p}, name, usage)
	return p
}

// number is a flag value that refuses negative and non-finite numbers
// at parse time, so a bad value never reaches a run.
type number[T int | float64] struct{ p *T }

func (n number[T]) String() string {
	// flag.PrintDefaults calls String on a zero number to spot defaults.
	if n.p == nil {
		return "0"
	}
	return fmt.Sprint(*n.p)
}

func (n number[T]) Set(s string) error {
	var v T
	switch p := any(&v).(type) {
	case *int:
		i, err := strconv.ParseInt(s, 0, strconv.IntSize)
		if err != nil {
			return errors.New("not an integer")
		}
		*p = int(i)
	case *float64:
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return errors.New("not a number")
		}
		*p = f
	}
	if f := float64(v); !(f >= 0) || math.IsInf(f, 1) {
		return errors.New("must be a finite number >= 0")
	}
	*n.p = v
	return nil
}
