//! Quickstart: compress a handful of cache lines over a CABLE link.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use cable::common::{Address, LineData};
use cable::core::{CableConfig, CableLink, Link, TransferKind};

fn main() {
    // A CABLE-compressed link between a 1 MB LLC (remote) and a 4 MB L4
    // buffer (home), 16-bit wide — the paper's §VI-A memory link.
    let mut link = CableLink::new(CableConfig::memory_link_default());

    // 1. A zero line takes the unseeded fast path: one 16-bit flit (32x).
    let t = link.request(Address::new(0x0000), LineData::zeroed());
    println!(
        "zero line      -> {:?}, {:3} payload bits, {:3} wire bits ({:.1}x)",
        t.kind(),
        t.payload_bits(),
        t.wire_bits(),
        t.ratio()
    );

    // 2. A structured line is transferred once...
    let object = LineData::from_words(core::array::from_fn(|i| 0x0400_0000 + (i as u32) * 0x111));
    let t = link.request(Address::new(0x1000), object);
    println!(
        "first object   -> {:?}, {:3} payload bits, {:3} wire bits ({:.1}x)",
        t.kind(),
        t.payload_bits(),
        t.wire_bits(),
        t.ratio()
    );

    // 3. ...and a *similar* line at an unrelated address becomes a DIFF
    //    against the cached copy: CABLE found the reference through its
    //    signature hash table and named it with a RemoteLID.
    let mut similar = object;
    similar.set_word(5, 0x1234_5678);
    let t = link.request(Address::new(0x2040), similar);
    assert_eq!(t.kind(), TransferKind::Diff);
    println!(
        "similar object -> {:?}, {:3} payload bits, {:3} wire bits ({:.1}x), {} reference",
        t.kind(),
        t.payload_bits(),
        t.wire_bits(),
        t.ratio(),
        t.refs()
    );

    // 4. Cumulative statistics.
    let s = link.stats();
    println!(
        "\nfills {} | diffs {} | unseeded {} | raw {} | overall ratio {:.2}x",
        s.fills,
        s.diff_transfers,
        s.unseeded_transfers,
        s.raw_transfers,
        s.compression_ratio()
    );
}
