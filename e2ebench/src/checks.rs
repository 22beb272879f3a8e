//! Output checks. Each returns `Err(reason)` for a wrong output; the
//! workloads collect the reasons and the run fails if there is any.

use duo_serve::ClientStats;
use duo_video::VideoId;
use std::collections::HashSet;

/// Served lists must equal their recomputation through the public stage
/// functions, item by item.
pub fn lists_match(served: &[Vec<VideoId>], recomputed: &[Vec<VideoId>]) -> Result<(), String> {
    if served.len() != recomputed.len() {
        return Err(format!(
            "{} served lists vs {} recomputed",
            served.len(),
            recomputed.len()
        ));
    }
    for (i, (s, r)) in served.iter().zip(recomputed).enumerate() {
        if s != r {
            return Err(format!(
                "sampled request {i}: served {s:?} but the stages give {r:?}"
            ));
        }
    }
    Ok(())
}

/// Every account's ledger balances once its requests have drained:
/// `charged == served + failed` and `refunded == deadline_misses`.
pub fn accounts_balance(accounts: &[ClientStats]) -> Result<(), String> {
    for (slot, s) in accounts.iter().enumerate() {
        if s.charged != s.served + s.failed {
            return Err(format!(
                "account {slot}: charged {} != served {} + failed {}",
                s.charged, s.served, s.failed
            ));
        }
        if s.refunded != s.deadline_misses {
            return Err(format!(
                "account {slot}: refunded {} != deadline misses {}",
                s.refunded, s.deadline_misses
            ));
        }
    }
    Ok(())
}

/// The attacker was charged exactly the queries its oracle answered.
pub fn charged_matches_oracle(charged: u64, oracle_answers: u64) -> Result<(), String> {
    if charged == oracle_answers {
        Ok(())
    } else {
        Err(format!(
            "attacker charged {charged} queries but the oracle answered {oracle_answers}"
        ))
    }
}

/// Two passes of the attack at one seed agree exactly on query count and
/// AP@m (compared bit for bit).
pub fn attack_repeats(first: (u64, f32), second: (u64, f32)) -> Result<(), String> {
    if first.0 == second.0 && first.1.to_bits() == second.1.to_bits() {
        Ok(())
    } else {
        Err(format!(
            "attack at one seed differs between passes: {} queries / AP {} vs {} / {}",
            first.0, first.1, second.0, second.1
        ))
    }
}

/// The live gallery holds as many rows as the bench's mirror of it.
pub fn gallery_len_matches(gallery_len: usize, mirror_len: usize) -> Result<(), String> {
    if gallery_len == mirror_len {
        Ok(())
    } else {
        Err(format!(
            "gallery holds {gallery_len} rows but the mirror holds {mirror_len}"
        ))
    }
}

/// A served list names only live gallery rows, each at most once, and
/// has the configured length (or the whole gallery, if smaller).
pub fn list_is_live(list: &[VideoId], live: &HashSet<VideoId>, m: usize) -> Result<(), String> {
    if list.len() != m.min(live.len()) {
        return Err(format!(
            "list of {} ids, expected {}",
            list.len(),
            m.min(live.len())
        ));
    }
    let mut seen = HashSet::new();
    for id in list {
        if !live.contains(id) {
            return Err(format!("list names {id:?}, which is not in the gallery"));
        }
        if !seen.insert(*id) {
            return Err(format!("list names {id:?} twice"));
        }
    }
    Ok(())
}

/// Exact top-`m` ids of `query` over `rows` by squared L2 distance
/// (ties broken by id), the reference for recall.
pub fn brute_force_top_m<'a>(
    rows: impl Iterator<Item = (VideoId, &'a [f32])>,
    query: &[f32],
    m: usize,
) -> Vec<VideoId> {
    let mut scored: Vec<(f32, VideoId)> = rows
        .map(|(id, f)| {
            let d: f32 = f.iter().zip(query).map(|(a, b)| (a - b) * (a - b)).sum();
            (d, id)
        })
        .collect();
    scored.sort_by(|a, b| {
        a.0.total_cmp(&b.0)
            .then((a.1.class, a.1.instance).cmp(&(b.1.class, b.1.instance)))
    });
    scored.truncate(m);
    scored.into_iter().map(|(_, id)| id).collect()
}

/// Share of the exact top-`m` that the served list contains.
pub fn recall(served: &[VideoId], exact: &[VideoId]) -> f64 {
    if exact.is_empty() {
        return 1.0;
    }
    let served: HashSet<&VideoId> = served.iter().collect();
    exact.iter().filter(|id| served.contains(id)).count() as f64 / exact.len() as f64
}

/// Recall must stay above a floor far below any working index's, so a
/// broken index (or wrong ids) fails the run rather than reading as slow.
pub fn recall_above(recall: f64, floor: f64) -> Result<(), String> {
    if recall >= floor {
        Ok(())
    } else {
        Err(format!(
            "recall@m {recall:.3} against brute force is below {floor}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(class: u32, instance: u32) -> VideoId {
        VideoId { class, instance }
    }

    #[test]
    fn lists_match_rejects_a_wrong_served_list() {
        let a = vec![vec![id(0, 1), id(0, 2)]];
        assert!(lists_match(&a, &a).is_ok());
        assert!(lists_match(&a, &[vec![id(0, 2), id(0, 1)]]).is_err());
        assert!(lists_match(&a, &[]).is_err());
    }

    #[test]
    fn accounts_balance_rejects_drift() {
        let ok = ClientStats {
            charged: 5,
            served: 4,
            failed: 1,
            refunded: 2,
            deadline_misses: 2,
            ..Default::default()
        };
        assert!(accounts_balance(&[ok]).is_ok());
        assert!(accounts_balance(&[ClientStats { charged: 6, ..ok }]).is_err());
        assert!(accounts_balance(&[ClientStats { refunded: 1, ..ok }]).is_err());
    }

    #[test]
    fn charged_must_equal_oracle_answers() {
        assert!(charged_matches_oracle(485, 485).is_ok());
        assert!(charged_matches_oracle(486, 485).is_err());
    }

    #[test]
    fn attack_repeats_rejects_any_difference() {
        assert!(attack_repeats((485, 50.0), (485, 50.0)).is_ok());
        assert!(attack_repeats((485, 50.0), (484, 50.0)).is_err());
        assert!(attack_repeats((485, 50.0), (485, 50.000004)).is_err());
    }

    #[test]
    fn gallery_len_must_match_the_mirror() {
        assert!(gallery_len_matches(40_000, 40_000).is_ok());
        assert!(gallery_len_matches(40_001, 40_000).is_err());
    }

    #[test]
    fn list_is_live_rejects_deleted_duplicate_and_short_lists() {
        let live: HashSet<VideoId> = (0..5).map(|i| id(0, i)).collect();
        assert!(list_is_live(&[id(0, 0), id(0, 1)], &live, 2).is_ok());
        assert!(list_is_live(&[id(0, 0), id(9, 9)], &live, 2).is_err());
        assert!(list_is_live(&[id(0, 0), id(0, 0)], &live, 2).is_err());
        assert!(list_is_live(&[id(0, 0)], &live, 2).is_err());
    }

    #[test]
    fn recall_counts_the_exact_top_m_and_the_floor_rejects_garbage() {
        let rows = [
            (id(0, 0), vec![0.0f32, 0.0]),
            (id(0, 1), vec![1.0, 0.0]),
            (id(0, 2), vec![5.0, 5.0]),
        ];
        let exact = brute_force_top_m(rows.iter().map(|(i, f)| (*i, f.as_slice())), &[0.9, 0.0], 2);
        assert_eq!(exact, vec![id(0, 1), id(0, 0)]);
        assert_eq!(recall(&[id(0, 0), id(0, 1)], &exact), 1.0);
        assert_eq!(recall(&[id(0, 0), id(0, 2)], &exact), 0.5);
        assert!(recall_above(0.5, 0.5).is_ok());
        assert!(recall_above(0.0, 0.5).is_err());
    }
}
