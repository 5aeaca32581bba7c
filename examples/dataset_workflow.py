"""Dataset workflow: generate, persist, reload and profile the Table 3 stand-ins.

Run with::

    python examples/dataset_workflow.py [output_directory]

For each of the paper's four datasets the script generates the stand-in at a
small scale, writes it to an edge-list file, reloads it, builds and persists
its selectivity catalog, and prints a Table-3-style summary together with the
label-frequency statistics that distinguish the "real" stand-ins (skewed,
correlated labels) from the synthetic ones (uniform labels).
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from repro import SelectivityCatalog
from repro.datasets.registry import available_datasets, dataset_spec, load_dataset
from repro.experiments.reporting import format_records
from repro.graph.io import read_edge_list, write_edge_list
from repro.graph.statistics import label_frequency_skew, summarize_graph


def main(output_directory: str | None = None) -> None:
    target = Path(output_directory) if output_directory else Path(tempfile.mkdtemp(prefix="repro-datasets-"))
    target.mkdir(parents=True, exist_ok=True)
    print(f"writing datasets and catalogs to {target}\n")

    rows = []
    for name in available_datasets():
        spec = dataset_spec(name)
        graph = load_dataset(name, scale=0.02)

        edge_file = target / f"{name}.tsv"
        write_edge_list(graph, edge_file)
        reloaded = read_edge_list(edge_file, name=name)

        catalog = SelectivityCatalog.from_graph(reloaded, max_length=2)
        catalog_file = target / f"{name}.catalog.npz"
        catalog.save_npz(catalog_file)

        summary = summarize_graph(reloaded)
        rows.append(
            {
                "dataset": name,
                "real (paper)": "yes" if spec.real_world else "no",
                "labels": summary.label_count,
                "vertices": summary.vertex_count,
                "edges": summary.edge_count,
                "label skew (max/min)": round(label_frequency_skew(reloaded), 1),
                "label gini": round(summary.label_gini, 3),
                "|L2| paths": catalog.domain_size,
                "non-empty paths": len(catalog.nonzero_paths()),
            }
        )
        print(f"  {name}: wrote {edge_file.name} and {catalog_file.name}")

    print("\nTable 3 (stand-ins at scale 0.02) with label-distribution statistics:")
    print(format_records(rows))
    print("\nNote how the 'real' stand-ins have much higher label skew/Gini — the "
          "property the paper credits for the smaller sum-based advantage on real data.")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else None)
