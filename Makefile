# Convenience targets; everything is plain dune underneath.

.PHONY: all build test bench bench-json perfdiff ci examples doc clean

all: build

build:
	dune build @all

test:
	dune runtest

test-force:
	dune runtest --force --no-buffer

bench:
	dune exec bench/main.exe

bench-tables:
	dune exec bench/main.exe -- --no-micro

# Refresh the rolling baseline (commit it when a change moves the numbers).
bench-json:
	dune exec bench/main.exe -- --json BENCH.json

# Gate a fresh artifact against the committed baseline without touching it.
perfdiff:
	dune exec bench/main.exe -- --json bench-fresh.json
	dune exec bin/perfdiff.exe -- --gate 100 BENCH.json bench-fresh.json

ci:
	bin/ci.sh

examples:
	dune exec examples/quickstart.exe
	dune exec examples/graybox_design.exe
	dune exec examples/fault_injection.exe
	dune exec examples/bytecode_demo.exe
	dune exec examples/bidding_demo.exe
	dune exec examples/kstate_derivation.exe

doc:
	dune build @doc

clean:
	dune clean
