// Command newton is the Newton simulator's one command-line front door.
// Each subcommand drives one runner of the simulator:
//
//	newton bench    regenerate the paper's figures and studies (Figs. 8-13,
//	                layout, serving, fleet, fault and coexistence studies)
//	newton sim      run one matrix-vector product or one end-to-end model
//	newton trace    print the cycle-stamped command stream of a small
//	                product, the timing picture of the paper's Fig. 7
//	newton replay   check and time a recorded command trace or ISR program
//	newton serve    replay request streams against one serving device
//	newton cluster  replay request streams against a multi-device fleet
//	newton mem      run matrix-vector products beside host memory traffic
//
// `newton <cmd> -h` documents a subcommand's flags. The subcommands share
// one flag layer: -channels and -banks (the device geometry), and the
// fleet flags serve and cluster both take. Everything is seeded and
// virtual-time, so the same flags always print the same output, byte for
// byte.
//
// Errors print as "newton <cmd>: <err>" on stderr and exit 1; a bad
// command line exits 2, and a bad flag value's error names the flag.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
)

// commands lists the subcommands in help order. Each parses its own
// arguments and writes its report to stdout; progress lines and notices
// of written files go to stderr.
var commands = []struct {
	name, summary string
	run           func(args []string, stdout io.Writer) error
}{
	{"bench", "regenerate the paper's figures and studies", runBench},
	{"sim", "run one matrix-vector product or one end-to-end model", runSim},
	{"trace", "print the command stream of a small product (Fig. 7)", runTrace},
	{"replay", "check and time a recorded command trace or ISR program", runReplay},
	{"serve", "replay request streams against one serving device", runServe},
	{"cluster", "replay request streams against a multi-device fleet", runCluster},
	{"mem", "run products beside seeded host memory traffic", runMem},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run dispatches one command line and returns the process exit status.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		for _, c := range commands {
			if c.name != args[0] {
				continue
			}
			err := c.run(args[1:], stdout)
			switch {
			case err == nil, errors.Is(err, flag.ErrHelp):
				return 0
			case errors.Is(err, errUsage):
				return 2 // the flag package has reported it, with the usage
			}
			fmt.Fprintf(stderr, "newton %s: %v\n", c.name, err)
			var ue *usageError
			if errors.As(err, &ue) {
				return 2
			}
			return 1
		}
		fmt.Fprintf(stderr, "newton: unknown command %q\n\n", args[0])
	}
	fmt.Fprintln(stderr, "usage: newton <command> [flags]\n\ncommands:")
	for _, c := range commands {
		fmt.Fprintf(stderr, "  %-8s %s\n", c.name, c.summary)
	}
	fmt.Fprintln(stderr, "\nRun 'newton <command> -h' for a command's flags.")
	return 2
}
