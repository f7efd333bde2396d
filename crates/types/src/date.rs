//! A minimal proleptic-Gregorian calendar date.
//!
//! TPC-H data, the time-series tables of Figure 2 and the aging mechanism
//! of §3.1 all need date arithmetic, but none of it needs time zones or
//! leap seconds, so we implement the classic civil-date conversion
//! (Howard Hinnant's algorithm) over an `i32` day count instead of pulling
//! in a calendar crate.

use std::fmt;

use crate::error::{HanaError, Result};

/// A calendar date stored as days since the Unix epoch (1970-01-01).
///
/// Ordering, hashing and equality follow the day count, so `Date` can be
/// used directly as a dictionary-encoded column value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Date(pub i32);

impl Date {
    /// Construct from a civil `(year, month, day)` triple.
    ///
    /// Months are 1-based. Out-of-range months/days are *not* validated
    /// beyond what the conversion needs; use [`Date::parse`] for validated
    /// input.
    pub fn from_ymd(y: i32, m: u32, d: u32) -> Date {
        // Days-from-civil (Hinnant). Shift so the year starts in March.
        let y = if m <= 2 { y - 1 } else { y };
        let era = if y >= 0 { y } else { y - 399 } / 400;
        let yoe = (y - era * 400) as i64; // [0, 399]
        let mp = (m as i64 + 9) % 12; // [0, 11], March = 0
        let doy = (153 * mp + 2) / 5 + d as i64 - 1; // [0, 365]
        let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
        Date((era as i64 * 146_097 + doe - 719_468) as i32)
    }

    /// Convert back to a civil `(year, month, day)` triple.
    pub fn to_ymd(self) -> (i32, u32, u32) {
        let z = self.0 as i64 + 719_468;
        let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
        let doe = z - era * 146_097; // [0, 146096]
        let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146_096) / 365;
        let y = yoe + era * 400;
        let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
        let mp = (5 * doy + 2) / 153; // [0, 11]
        let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
        let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
        let y = if m <= 2 { y + 1 } else { y };
        (y as i32, m, d)
    }

    /// Parse an ISO `YYYY-MM-DD` string, validating month and day ranges.
    pub fn parse(s: &str) -> Result<Date> {
        let bad = || HanaError::Parse(format!("invalid date literal '{s}', expected YYYY-MM-DD"));
        // The ten bytes every writer in the platform produces, without
        // a splitter and three integer parsers: text tables hold dates
        // by the hundred thousand.
        let digits = |text: &[u8]| {
            let digit = |n: u32, c: &u8| c.is_ascii_digit().then(|| n * 10 + (c - b'0') as u32);
            text.iter().try_fold(0, digit)
        };
        let canonical = match s.as_bytes() {
            [y @ .., b'-', m1, m2, b'-', d1, d2] if y.len() == 4 => {
                digits(y).zip(digits(&[*m1, *m2])).zip(digits(&[*d1, *d2]))
            }
            _ => None,
        };
        let (y, m, d) = match canonical {
            Some(((y, m), d)) => (y as i32, m, d),
            None => {
                let mut it = s.split('-');
                let y: i32 = it.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
                let m: u32 = it.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
                let d: u32 = it.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
                if it.next().is_some() {
                    return Err(bad());
                }
                (y, m, d)
            }
        };
        if !(1..=12).contains(&m) || !(1..=31).contains(&d) {
            return Err(bad());
        }
        let date = Date::from_ymd(y, m, d);
        // Reject day overflow like February 30th by round-tripping.
        if date.to_ymd() != (y, m, d) {
            return Err(bad());
        }
        Ok(date)
    }

    /// The year component.
    pub fn year(self) -> i32 {
        self.to_ymd().0
    }

    /// The month component (1-based).
    pub fn month(self) -> u32 {
        self.to_ymd().1
    }

    /// The day-of-month component (1-based).
    pub fn day(self) -> u32 {
        self.to_ymd().2
    }

    /// This date plus `days` (may be negative).
    pub fn add_days(self, days: i32) -> Date {
        Date(self.0 + days)
    }

    /// Add whole months, clamping the day to the target month's length
    /// (matching SQL `ADD_MONTHS` semantics).
    pub fn add_months(self, months: i32) -> Date {
        let (y, m, d) = self.to_ymd();
        let total = y * 12 + (m as i32 - 1) + months;
        let (ny, nm) = (total.div_euclid(12), total.rem_euclid(12) as u32 + 1);
        let max_d = days_in_month(ny, nm);
        Date::from_ymd(ny, nm, d.min(max_d))
    }
}

/// Number of days in the given month of the given year.
fn days_in_month(y: i32, m: u32) -> u32 {
    match m {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if (y % 4 == 0 && y % 100 != 0) || y % 400 == 0 {
                29
            } else {
                28
            }
        }
        _ => unreachable!("month out of range"),
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (y, m, d) = self.to_ymd();
        write!(f, "{y:04}-{m:02}-{d:02}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_day_zero() {
        assert_eq!(Date::from_ymd(1970, 1, 1).0, 0);
        assert_eq!(Date(0).to_ymd(), (1970, 1, 1));
    }

    #[test]
    fn round_trip_range() {
        // Every day over ~60 years round-trips through civil conversion.
        for day in -10_000..25_000 {
            let d = Date(day);
            let (y, m, dd) = d.to_ymd();
            assert_eq!(Date::from_ymd(y, m, dd), d);
        }
    }

    #[test]
    fn parse_and_display() {
        let d = Date::parse("1995-03-15").unwrap();
        assert_eq!(d.to_string(), "1995-03-15");
        assert_eq!(d.year(), 1995);
        assert_eq!(d.month(), 3);
        assert_eq!(d.day(), 15);
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "",
            "1995",
            "1995-13-01",
            "1995-02-30",
            "95-1-1-1",
            "abcd-ef-gh",
        ] {
            assert!(Date::parse(bad).is_err(), "{bad} should not parse");
        }
    }

    #[test]
    fn leap_years() {
        assert!(Date::parse("2000-02-29").is_ok());
        assert!(Date::parse("1900-02-29").is_err());
        assert!(Date::parse("1996-02-29").is_ok());
        assert!(Date::parse("1995-02-29").is_err());
    }

    #[test]
    fn add_months_clamps() {
        let d = Date::parse("1995-01-31").unwrap();
        assert_eq!(d.add_months(1).to_string(), "1995-02-28");
        assert_eq!(d.add_months(3).to_string(), "1995-04-30");
        assert_eq!(d.add_months(12).to_string(), "1996-01-31");
        assert_eq!(d.add_months(-1).to_string(), "1994-12-31");
    }

    #[test]
    fn ordering_follows_calendar() {
        assert!(Date::parse("1994-12-31").unwrap() < Date::parse("1995-01-01").unwrap());
    }
}
