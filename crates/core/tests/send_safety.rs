//! Compile-time pin: link state must stay `Send` so a link, or a
//! simulator that owns one, can be handed to another thread. Every boxed
//! engine trait object carries a `+ Send` bound; if one is ever dropped,
//! this file stops compiling instead of a downstream caller breaking at a
//! distance.

use cable_core::{BaselineLink, CableLink, FaultyChannel, OooLink};

fn assert_send<T: Send>() {}

#[test]
fn link_state_is_send() {
    assert_send::<CableLink>();
    assert_send::<BaselineLink>();
    assert_send::<FaultyChannel>();
    assert_send::<OooLink>();
}
