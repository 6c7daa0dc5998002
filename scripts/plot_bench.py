#!/usr/bin/env python3
"""Plot bench CSV output.

Usage:
    ./build/bench/bench_paper --sweep=fig2a --csv > fig2a.csv
    scripts/plot_bench.py fig2a.csv -o fig2a.png

The input is the bench's --csv output: '#'-prefixed banner lines, then a
header row, then data rows. The first column is the x axis; every later
numeric column whose name ends in `_tps` (or every numeric column with
--all) becomes a series. Requires matplotlib.
"""

import argparse
import csv
import sys


def load(path):
    banner = []
    rows = []
    header = None
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                banner.append(line[1:].strip())
                continue
            cells = next(csv.reader([line]))
            if header is None:
                header = cells
            else:
                rows.append(cells)
    if header is None:
        sys.exit(f"{path}: no CSV header found (run the bench with --csv)")
    return banner, header, rows


def numeric(values):
    out = []
    for v in values:
        try:
            out.append(float(v))
        except ValueError:
            return None
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("csv_file")
    parser.add_argument("-o", "--output", default=None,
                        help="output image (default: <input>.png)")
    parser.add_argument("--all", action="store_true",
                        help="plot every numeric column, not just *_tps")
    parser.add_argument("--logy", action="store_true")
    args = parser.parse_args()

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        sys.exit("matplotlib is required: pip install matplotlib")

    banner, header, rows = load(args.csv_file)
    if not rows:
        sys.exit("no data rows")

    x_label = header[0]
    x = numeric([r[0] for r in rows])
    categorical = x is None
    if categorical:
        x = list(range(len(rows)))

    fig, ax = plt.subplots(figsize=(7, 4.5))
    plotted = 0
    for col in range(1, len(header)):
        name = header[col]
        if not args.all and not name.endswith("_tps") and name != "tps":
            continue
        ys = numeric([r[col] for r in rows])
        if ys is None:
            continue
        ax.plot(x, ys, marker="o", label=name)
        plotted += 1
    if plotted == 0:
        sys.exit("no plottable columns (try --all)")

    if categorical:
        ax.set_xticks(x)
        ax.set_xticklabels([r[0] for r in rows], rotation=30, ha="right")
    ax.set_xlabel(x_label)
    ax.set_ylabel("throughput (txn/s per site)" if not args.all else "")
    if args.logy:
        ax.set_yscale("log")
    if banner:
        ax.set_title(banner[0], fontsize=9)
    ax.grid(True, alpha=0.3)
    ax.legend()
    fig.tight_layout()

    out = args.output or args.csv_file.rsplit(".", 1)[0] + ".png"
    fig.savefig(out, dpi=130)
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
