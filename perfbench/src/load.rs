//! Open-loop load: arrival schedules and per-request timing.
//!
//! Every request is timed from when it was *due*, not from when the
//! generator got round to sending it, so a stall in the system (or in the
//! generator) is charged to each request that waited behind it.

/// `count` arrival offsets (seconds from the phase start) at a constant
/// `rate_per_s`, first arrival at 0. A constant rate keeps run-to-run
/// spread down to the system's own; the tenants still never wait for a
/// reply before the next one is due.
pub fn constant_rate(rate_per_s: f64, count: usize) -> Vec<f64> {
    (0..count).map(|i| i as f64 / rate_per_s).collect()
}

/// One open-loop request's life, in seconds on the generator's clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// When the schedule said to send it.
    pub due_s: f64,
    /// When the generator actually sent it (`None`: never admitted).
    pub sent_s: Option<f64>,
    /// When its answer arrived (`None`: refused or failed).
    pub done_s: Option<f64>,
}

impl Request {
    pub fn due(due_s: f64) -> Self {
        Self { due_s, sent_s: None, done_s: None }
    }

    /// Time from due to answer; `None` for a request that got none.
    pub fn latency_s(&self) -> Option<f64> {
        self.done_s.map(|d| d - self.due_s)
    }

    /// How late the generator sent it.
    pub fn lateness_s(&self) -> Option<f64> {
        self.sent_s.map(|s| s - self.due_s)
    }
}

/// Share of `requests` answered within `limit_s` of being due. Refused
/// and failed requests count as misses.
pub fn goodput(requests: &[Request], limit_s: f64) -> f64 {
    if requests.is_empty() {
        return 0.0;
    }
    let good = requests.iter().filter(|r| r.latency_s().is_some_and(|l| l <= limit_s)).count();
    good as f64 / requests.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stall_is_charged_to_every_request_due_during_it() {
        // Due every 10 ms; the generator stalls from 5 ms to 35 ms, then
        // sends the backlog at once; each answer takes 5 ms from sending.
        let due = [0.000, 0.010, 0.020, 0.030, 0.040];
        let sent = [0.000, 0.035, 0.035, 0.035, 0.040];
        let requests: Vec<Request> = due
            .iter()
            .zip(sent)
            .map(|(&d, s)| Request { due_s: d, sent_s: Some(s), done_s: Some(s + 0.005) })
            .collect();
        let lat: Vec<f64> = requests.iter().map(|r| r.latency_s().unwrap()).collect();
        let late: Vec<f64> = requests.iter().map(|r| r.lateness_s().unwrap()).collect();
        let close = |a: &[f64], b: &[f64]| a.iter().zip(b).all(|(x, y)| (x - y).abs() < 1e-12);
        assert!(close(&lat, &[0.005, 0.030, 0.020, 0.010, 0.005]), "{lat:?}");
        assert!(close(&late, &[0.0, 0.025, 0.015, 0.005, 0.0]), "{late:?}");
        // A closed-loop view would have seen a flat 5 ms for every request.
        assert!(lat.iter().any(|&l| l > 0.005 + 1e-9));
    }

    #[test]
    fn refusals_and_failures_count_as_goodput_misses() {
        let ok = Request { due_s: 1.0, sent_s: Some(1.0), done_s: Some(1.02) };
        let slow = Request { due_s: 1.0, sent_s: Some(1.0), done_s: Some(1.5) };
        let refused = Request { due_s: 1.0, sent_s: None, done_s: None };
        let failed = Request { due_s: 1.0, sent_s: Some(1.0), done_s: None };
        assert_eq!(goodput(&[ok, slow, refused, failed], 0.1), 0.25);
        assert_eq!(refused.latency_s(), None);
        assert_eq!(refused.lateness_s(), None);
        assert_eq!(goodput(&[], 0.1), 0.0);
    }

    #[test]
    fn constant_rate_spaces_arrivals_evenly() {
        let due = constant_rate(50.0, 101);
        assert_eq!(due.len(), 101);
        assert_eq!(due[0], 0.0);
        assert!(due.windows(2).all(|w| ((w[1] - w[0]) - 0.02).abs() < 1e-12));
        assert!((due[100] - 2.0).abs() < 1e-12);
    }
}
