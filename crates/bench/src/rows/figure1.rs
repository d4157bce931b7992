//! Figure 1's rows, the figure's networks executed through the metering
//! executor, and its report: the drawing, its structural properties, and
//! the check that each row spends exactly its network's comparators.

use super::{key64, scrambled, series, ModelRow, Row, Table};
use metrics::Tracked;
use sortnet::{bitonic_sort_flat_par, oddeven_sort, sort_slice_rec, Network};
use std::io::{self, Write};

pub(super) fn rows<'a>() -> Vec<ModelRow<'a>> {
    let t = Table::Figure1;
    vec![
        t.row("figure1", "bitonic recursive (fig. 1)", 16, |c| {
            sort_slice_rec(c, &mut scrambled(16), &key64, true);
        }),
        t.row("figure1", "bitonic flat (strawman)", 16, |c| {
            let mut v = scrambled(16);
            bitonic_sort_flat_par(c, &mut Tracked::new(c, &mut v), &key64, true);
        }),
        t.row("figure1", "odd-even merge (contrast)", 16, |c| {
            oddeven_sort(c, &mut Tracked::new(c, &mut scrambled(16)), &key64);
        }),
    ]
}

pub(super) fn report(rows: &[Row], out: &mut impl Write) -> io::Result<()> {
    let verified = |net: &Network| {
        assert!(
            net.is_sorting_network(),
            "{} wires: not a sorting network",
            net.n
        );
        "verified"
    };
    let net = Network::bitonic(16);
    writeln!(out, "== Figure 1: bitonic sorting network, n = 16 ==\n")?;
    writeln!(out, "{}", net.render_ascii())?;
    writeln!(out, "wires:        {}", net.n)?;
    writeln!(
        out,
        "layers:       {} (= 1 + 2 + 3 + 4 bitonic-merge stages)",
        net.depth()
    )?;
    writeln!(out, "comparators:  {} (= n/2 per layer)", net.size())?;
    writeln!(
        out,
        "sorting net:  {} (exhaustive 0-1 principle over 2^16 inputs)",
        verified(&net)
    )?;

    let oe = Network::oddeven(16);
    writeln!(
        out,
        "\nfor contrast, Batcher odd-even mergesort on 16 wires:"
    )?;
    writeln!(out, "layers:       {}", oe.depth())?;
    writeln!(out, "comparators:  {}", oe.size())?;
    writeln!(out, "sorting net:  {}", verified(&oe))?;

    // The rows tie the drawing to the code paths that run it: the bitonic
    // rows spend exactly `net.size()` comparisons, the odd-even row exactly
    // `oe.size()`.
    for (algo, want, what) in [
        ("bitonic recursive (fig. 1)", net.size(), "fig.1 drifted"),
        ("bitonic flat (strawman)", net.size(), "fig.1 drifted"),
        ("odd-even merge (contrast)", oe.size(), "odd-even drifted"),
    ] {
        let row = series(rows, "figure1", algo)[0];
        assert_eq!(row.rep.comparisons as usize, want, "{what}");
    }
    Ok(())
}
