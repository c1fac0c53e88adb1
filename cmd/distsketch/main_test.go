package main

import (
	"context"
	"flag"
	"io"
	"strings"
	"testing"
	"time"
)

// TestBadParamsFailBeforeAnySocket drives every role with one out-of-range
// parameter. Each must come back as an error naming that parameter, from
// validation that runs before the role opens a listener, dials, or reads
// its input: a check that ran later would surface a different error (a
// missing input file, a dial or accept failure at the deadline) or a panic.
func TestBadParamsFailBeforeAnySocket(t *testing.T) {
	server := []string{"-role", "server", "-protocol", "fd", "-addr", "127.0.0.1:0", "-input", "missing.dskm"}
	coordinator := []string{"-role", "coordinator", "-protocol", "fd", "-addr", "127.0.0.1:0", "-d", "8"}
	aggregator := []string{"-role", "aggregator", "-protocol", "fd", "-addr", "127.0.0.1:0", "-listen", "127.0.0.1:0",
		"-d", "8", "-servers", "4", "-topology", "tree", "-id", "4"}
	serveCoordinator := []string{"-serve", "-role", "coordinator", "-addr", "127.0.0.1:0", "-d", "8"}
	serveServer := []string{"-serve", "-role", "server", "-addr", "127.0.0.1:0", "-gen", "10", "-d", "8"}

	type tc struct {
		name string
		args []string
		want string // substring of the error
	}
	var cases []tc
	for _, eps := range []string{"0", "1", "1.5", "NaN"} {
		for name, role := range map[string][]string{
			"server": server, "coordinator": coordinator, "aggregator": aggregator,
			"serve-coordinator": serveCoordinator, "serve-server": serveServer,
		} {
			cases = append(cases, tc{name + "/eps=" + eps, append(role[:len(role):len(role)], "-eps", eps), "eps " + eps})
		}
	}
	// pca's -eps is the PCA target, not its inner sketch's ε/2.
	for _, eps := range []string{"0", "1", "1.5", "NaN"} {
		for name, role := range map[string][]string{"server": server, "coordinator": coordinator} {
			args := append(role[:len(role):len(role)], "-eps", eps)
			args[3] = "pca" // the -protocol value
			cases = append(cases, tc{"pca-" + name + "/eps=" + eps, args, "eps " + eps})
		}
	}
	for _, alpha := range []string{"-0.5", "1.5", "NaN"} {
		for name, role := range map[string][]string{"server": server, "coordinator": coordinator, "aggregator": aggregator} {
			cases = append(cases, tc{name + "/alpha=" + alpha, append(role[:len(role):len(role)], "-alpha", alpha), "alpha " + alpha})
		}
	}
	cases = append(cases,
		tc{"server/s=0", append(server[:len(server):len(server)], "-servers", "0"), "s=0"},
		tc{"coordinator/s=0", append(coordinator[:len(coordinator):len(coordinator)], "-servers", "0"), "s=0"},
		tc{"serve-coordinator/s=0", append(serveCoordinator[:len(serveCoordinator):len(serveCoordinator)], "-servers", "0"), "s=0"},
		tc{"coordinator/d=0", append(coordinator[:len(coordinator):len(coordinator)], "-d", "0"), "-d"},
		tc{"aggregator/d=0", append(aggregator[:len(aggregator):len(aggregator)], "-d", "0"), "-d"},
		tc{"serve-coordinator/d=0", append(serveCoordinator[:len(serveCoordinator):len(serveCoordinator)], "-d", "0"), "-d"},
		tc{"serve-server/d=0", append(serveServer[:len(serveServer):len(serveServer)], "-d", "0"), "-d"},
	)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fs := flag.NewFlagSet("distsketch", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			o, err := parseFlags(fs, c.args)
			if err != nil {
				t.Fatal(err)
			}
			run, err := o.roleFunc()
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panicked instead of returning an error: %v", r)
					}
				}()
				err = run(ctx, o)
			}()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want one naming %q", err, c.want)
			}
		})
	}
}
