# SWS-Go reproduction build targets.

GO ?= go

.PHONY: all build test race bench tables experiments fuzz clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

# -timeout makes a hang fail with its package and test named.
test:
	$(GO) test -timeout 300s ./...

race:
	$(GO) test -race -timeout 300s ./...

bench:
	$(GO) test -run xxx -bench . -benchmem .

# Regenerate every table and figure of the paper's evaluation.
tables:
	$(GO) run ./cmd/sws-tables -reps 5 -pes-list 2,4,8,16

experiments:
	mkdir -p results
	$(GO) run ./cmd/sws-tables -reps 5 -pes-list 2,4,8,16 > results/tables.txt
	$(GO) run ./cmd/sws-uts -sweep -tree small -pes-list 2,4,8,16 -reps 5 > results/fig8.txt
	$(GO) run ./cmd/sws-tables -only ablations > results/ablations.txt
	$(GO) run ./cmd/sws-steal -fig2 > results/fig2.txt

fuzz:
	$(GO) test -fuzz FuzzStealvalRoundTrip -fuzztime 30s ./internal/core/
	$(GO) test -fuzz FuzzCodecRoundTrip -fuzztime 30s ./internal/task/

clean:
	$(GO) clean ./...
