#!/usr/bin/env bash
# The whole pipeline through the command-line interface: data generation,
# both training stages, probing, analytics, and the backbone benchmark.
# Every artifact lands under one output tree; rerunning with the same seed
# reproduces it byte for byte.
set -euo pipefail

OUT="$(mktemp -d)/run"
CFG="$(mktemp)"

# overrides on top of the desk preset, scaled down so the demo finishes fast
cat > "$CFG" <<'EOF'
data.channels = 2
data.sample_rate = 100
data.duration = 4.0
data.noise_sigma = 4.0
data.records_per_class = 24
data.class.slow.bands = 1-4:40
data.class.alpha.bands = 8-12:40

tokenizer.patch_len = 100
tokenizer.hidden = 32
tokenizer.enc_layers = 1
tokenizer.heads = 2
tokenizer.mlp_dim = 64
tokenizer.codebook_size = 32
tokenizer.code_dim = 8

# the backbone takes patch_len and codebook_size from the tokenizer
model.features = 32
model.blocks = 2
model.kernel_len = 8
model.kernel_base = 2
model.window = 3

stage1.steps = 100
stage2.steps = 1200
probe.hidden = 32
probe.compress = 64
probe.steps = 200
probe.batch_size = 8
probe.seeds = 2

bench.sizes = 1024,2048
bench.base = 16
bench.repeats = 1
EOF

run() { echo "+ codebrain $*"; codebrain "$@"; }

run gen-data        --config "$CFG" --out "$OUT"
run train-tokenizer --config "$CFG" --out "$OUT"
run train-ssm       --config "$CFG" --out "$OUT"
run probe           --config "$CFG" --out "$OUT"
run analyze         --config "$CFG" --out "$OUT"
run bench           --config "$CFG" --out "$OUT"

echo
echo "artifacts:"
find "$OUT" -type f | sort | sed "s|$OUT|  .|"
echo
echo "probe summary:"
cat "$OUT/probe/summary.csv"
