//! Host-time measurement from outside the system crates.
//!
//! [`Timed`] wraps a daemon actor and forwards every callback unchanged;
//! when its layer's [`HostClock`] is on, it adds the callback's host time
//! to the clock. Client drivers time their calls into the client
//! libraries with the same clock type.

use std::any::Any;
use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use mala_sim::{Actor, Context, NodeId};

/// Accumulated host time of one layer.
#[derive(Debug, Default)]
pub struct HostClock {
    on: Cell<bool>,
    ns: Cell<u64>,
}

impl HostClock {
    /// A shared clock, timing when `on`.
    pub fn shared(on: bool) -> Rc<HostClock> {
        let clock = HostClock::default();
        clock.on.set(on);
        Rc::new(clock)
    }

    /// Runs `f`, adding its host time when the clock is on.
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        if !self.on.get() {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.ns
            .set(self.ns.get() + start.elapsed().as_nanos() as u64);
        out
    }

    /// Turns timing on or off.
    pub fn set_on(&self, on: bool) {
        self.on.set(on);
    }

    /// Host nanoseconds accumulated so far.
    pub fn ns(&self) -> u64 {
        self.ns.get()
    }
}

/// A daemon actor whose callbacks are timed on a layer clock.
pub struct Timed<A> {
    /// The wrapped daemon.
    pub inner: A,
    clock: Rc<HostClock>,
}

impl<A: Actor> Timed<A> {
    /// Wraps `inner`, charging its callbacks to `clock`.
    pub fn new(inner: A, clock: Rc<HostClock>) -> Timed<A> {
        Timed { inner, clock }
    }
}

impl<A: Actor> Actor for Timed<A> {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.clock.time(|| self.inner.on_start(ctx));
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, from: NodeId, msg: Box<dyn Any>) {
        self.clock.time(|| self.inner.on_message(ctx, from, msg));
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        self.clock.time(|| self.inner.on_timer(ctx, token));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mala_sim::{Sim, SimDuration, SimTime};

    /// Bounces a counter between two nodes and arms timers, logging what
    /// it sees, so any change the wrapper made would show in the log.
    struct Pinger {
        peer: NodeId,
        log: Vec<(SimTime, u64)>,
    }

    impl Actor for Pinger {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer(SimDuration::from_micros(70), 9);
            if ctx.me() < self.peer {
                ctx.send(self.peer, 0u64);
            }
        }
        fn on_message(&mut self, ctx: &mut Context<'_>, _from: NodeId, msg: Box<dyn Any>) {
            let n = *msg.downcast::<u64>().expect("u64 payload");
            self.log.push((ctx.now(), n));
            if n < 50 {
                ctx.send(self.peer, n + 1);
            }
        }
        fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
            self.log.push((ctx.now(), 1000 + token));
        }
    }

    fn pinger(peer: u32) -> Pinger {
        Pinger {
            peer: NodeId(peer),
            log: Vec::new(),
        }
    }

    fn run(wrapped: bool, on: bool) -> (Vec<(SimTime, u64)>, u64) {
        let mut sim = Sim::new(5);
        let clock = HostClock::shared(on);
        if wrapped {
            sim.add_node(NodeId(0), Timed::new(pinger(1), clock.clone()));
        } else {
            sim.add_node(NodeId(0), pinger(1));
        }
        sim.add_node(NodeId(1), pinger(0));
        sim.run_until_idle();
        let log = if wrapped {
            sim.actor::<Timed<Pinger>>(NodeId(0)).inner.log.clone()
        } else {
            sim.actor::<Pinger>(NodeId(0)).log.clone()
        };
        let mut both = log;
        both.extend(sim.actor::<Pinger>(NodeId(1)).log.iter().copied());
        (both, clock.ns())
    }

    #[test]
    fn wrapped_actor_is_transparent() {
        let (plain, _) = run(false, false);
        let (timed, ns) = run(true, true);
        let (untimed, idle_ns) = run(true, false);
        // Each node logged its timer; node 0 got 25 messages, node 1 26.
        assert_eq!(plain.len(), 26 + 27);
        assert_eq!(plain, timed);
        assert_eq!(plain, untimed);
        assert!(ns > 0);
        assert_eq!(idle_ns, 0);
    }
}
