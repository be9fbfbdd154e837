//! Temporal primitives: civil-date conversion, ISO-8601 parsing/formatting,
//! datetime arithmetic, interval binning, and Allen's interval relations
//! (Table 1 of the paper).
//!
//! Dates are days since 1970-01-01; times are milliseconds since midnight;
//! datetimes are milliseconds since the Unix epoch. No external time crate is
//! used; the civil-date algorithms are the standard Howard Hinnant
//! days-from-civil formulas.

use crate::error::{AdmError, Result};
use crate::value::{DurationValue, IntervalKind, IntervalValue};

pub const MILLIS_PER_SECOND: i64 = 1_000;
pub const MILLIS_PER_MINUTE: i64 = 60 * MILLIS_PER_SECOND;
pub const MILLIS_PER_HOUR: i64 = 60 * MILLIS_PER_MINUTE;
pub const MILLIS_PER_DAY: i64 = 24 * MILLIS_PER_HOUR;

/// Convert a civil date to days since the Unix epoch.
pub fn days_from_civil(y: i32, m: u32, d: u32) -> i64 {
    let y = if m <= 2 { y - 1 } else { y } as i64;
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let mp = (m as i64 + 9) % 12; // March=0 .. February=11
    let doy = (153 * mp + 2) / 5 + d as i64 - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146_097 + doe - 719_468
}

/// Convert days since the Unix epoch back to a civil (year, month, day).
pub fn civil_from_days(z: i64) -> (i32, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    ((if m <= 2 { y + 1 } else { y }) as i32, m, d)
}

/// True for leap years in the proleptic Gregorian calendar.
pub fn is_leap_year(y: i32) -> bool {
    (y % 4 == 0 && y % 100 != 0) || y % 400 == 0
}

/// Days in a given month.
pub fn days_in_month(y: i32, m: u32) -> u32 {
    match m {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if is_leap_year(y) {
                29
            } else {
                28
            }
        }
        _ => 0,
    }
}

fn parse_fixed_u32(s: &str, what: &str) -> Result<u32> {
    s.parse::<u32>().map_err(|_| AdmError::Parse(format!("invalid {what} component: {s:?}")))
}

/// Parse `YYYY-MM-DD` (with optional leading `-` on the year) into epoch days.
pub fn parse_date(s: &str) -> Result<i32> {
    let (neg, rest) = match s.strip_prefix('-') {
        Some(r) => (true, r),
        None => (false, s),
    };
    let parts: Vec<&str> = rest.split('-').collect();
    if parts.len() != 3 {
        return Err(AdmError::Parse(format!("invalid date {s:?}")));
    }
    let mut y = parse_fixed_u32(parts[0], "year")? as i32;
    if neg {
        y = -y;
    }
    let m = parse_fixed_u32(parts[1], "month")?;
    let d = parse_fixed_u32(parts[2], "day")?;
    if !(1..=12).contains(&m) || d < 1 || d > days_in_month(y, m) {
        return Err(AdmError::Parse(format!("invalid date {s:?}")));
    }
    Ok(days_from_civil(y, m, d) as i32)
}

/// Parse `hh:mm:ss[.fff][Z|±hh:mm]` into milliseconds since midnight (UTC).
pub fn parse_time(s: &str) -> Result<i32> {
    let (body, offset_millis) = split_timezone(s)?;
    let parts: Vec<&str> = body.split(':').collect();
    if parts.len() != 3 {
        return Err(AdmError::Parse(format!("invalid time {s:?}")));
    }
    let h = parse_fixed_u32(parts[0], "hour")?;
    let mi = parse_fixed_u32(parts[1], "minute")?;
    let (sec_str, milli) = match parts[2].split_once('.') {
        Some((sec, frac)) => {
            let mut f = frac.to_string();
            while f.len() < 3 {
                f.push('0');
            }
            (sec, parse_fixed_u32(&f[..3], "millisecond")?)
        }
        None => (parts[2], 0),
    };
    let sec = parse_fixed_u32(sec_str, "second")?;
    if h > 23 || mi > 59 || sec > 59 {
        return Err(AdmError::Parse(format!("invalid time {s:?}")));
    }
    let millis = (h as i64) * MILLIS_PER_HOUR
        + (mi as i64) * MILLIS_PER_MINUTE
        + (sec as i64) * MILLIS_PER_SECOND
        + milli as i64
        - offset_millis;
    Ok(millis.rem_euclid(MILLIS_PER_DAY) as i32)
}

/// Split trailing timezone designator, returning (body, offset in millis).
fn split_timezone(s: &str) -> Result<(&str, i64)> {
    if let Some(body) = s.strip_suffix('Z') {
        return Ok((body, 0));
    }
    // Search for +hh:mm / -hhmm / +hh after the time part. A '-' can only be
    // a timezone if it appears after a ':' (so date separators don't match).
    if let Some(colon) = s.find(':') {
        let tail = &s[colon..];
        for (i, c) in tail.char_indices() {
            if c == '+' || c == '-' {
                let idx = colon + i;
                let tz = &s[idx + 1..];
                let digits: String = tz.chars().filter(|c| c.is_ascii_digit()).collect();
                if digits.len() < 2 {
                    break;
                }
                let h: i64 = digits[..2]
                    .parse()
                    .map_err(|_| AdmError::Parse(format!("invalid timezone offset in {s:?}")))?;
                let m: i64 = if digits.len() >= 4 { digits[2..4].parse().unwrap_or(0) } else { 0 };
                let sign = if c == '-' { -1 } else { 1 };
                return Ok((&s[..idx], sign * (h * MILLIS_PER_HOUR + m * MILLIS_PER_MINUTE)));
            }
        }
    }
    Ok((s, 0))
}

/// Parse `YYYY-MM-DDThh:mm:ss[.fff][Z|±hh:mm]` into epoch milliseconds.
pub fn parse_datetime(s: &str) -> Result<i64> {
    let (date_part, time_part) = s
        .split_once('T')
        .ok_or_else(|| AdmError::Parse(format!("invalid datetime {s:?} (missing 'T')")))?;
    let days = parse_date(date_part)? as i64;
    let (body, offset) = split_timezone(time_part)?;
    // Parse the time body *without* timezone wrap so we can apply the offset
    // to the full datetime rather than modulo one day.
    let t = parse_time(body)? as i64;
    Ok(days * MILLIS_PER_DAY + t - offset)
}

/// Parse an ISO-8601 duration `PnYnMnDTnHnMnS` into (months, millis).
pub fn parse_duration(s: &str) -> Result<(i32, i64)> {
    let (neg, rest) = match s.strip_prefix('-') {
        Some(r) => (true, r),
        None => (false, s),
    };
    let rest = rest
        .strip_prefix('P')
        .ok_or_else(|| AdmError::Parse(format!("invalid duration {s:?} (missing 'P')")))?;
    let mut months: i64 = 0;
    let mut millis: i64 = 0;
    let mut in_time = false;
    let mut num = String::new();
    for c in rest.chars() {
        match c {
            'T' => in_time = true,
            '0'..='9' | '.' => num.push(c),
            'Y' | 'M' | 'D' | 'H' | 'S' | 'W' => {
                let n: f64 =
                    num.parse().map_err(|_| AdmError::Parse(format!("invalid duration {s:?}")))?;
                num.clear();
                match (c, in_time) {
                    ('Y', false) => months += (n as i64) * 12,
                    ('M', false) => months += n as i64,
                    ('W', false) => millis += (n * 7.0 * MILLIS_PER_DAY as f64) as i64,
                    ('D', false) => millis += (n * MILLIS_PER_DAY as f64) as i64,
                    ('H', true) => millis += (n * MILLIS_PER_HOUR as f64) as i64,
                    ('M', true) => millis += (n * MILLIS_PER_MINUTE as f64) as i64,
                    ('S', true) => millis += (n * MILLIS_PER_SECOND as f64) as i64,
                    _ => return Err(AdmError::Parse(format!("invalid duration {s:?}"))),
                }
            }
            _ => return Err(AdmError::Parse(format!("invalid duration {s:?}"))),
        }
    }
    if !num.is_empty() {
        return Err(AdmError::Parse(format!("invalid duration {s:?} (trailing number)")));
    }
    let sign = if neg { -1 } else { 1 };
    Ok((sign * months as i32, sign as i64 * millis))
}

/// Format epoch days as `YYYY-MM-DD`.
pub fn format_date(days: i32) -> String {
    let (y, m, d) = civil_from_days(days as i64);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Format millis-since-midnight as `hh:mm:ss.fffZ` (millis omitted if zero).
pub fn format_time(millis: i32) -> String {
    let t = millis as i64;
    let h = t / MILLIS_PER_HOUR;
    let mi = (t % MILLIS_PER_HOUR) / MILLIS_PER_MINUTE;
    let s = (t % MILLIS_PER_MINUTE) / MILLIS_PER_SECOND;
    let ms = t % MILLIS_PER_SECOND;
    if ms == 0 {
        format!("{h:02}:{mi:02}:{s:02}")
    } else {
        format!("{h:02}:{mi:02}:{s:02}.{ms:03}")
    }
}

/// Format epoch millis as `YYYY-MM-DDThh:mm:ss[.fff]`.
pub fn format_datetime(millis: i64) -> String {
    let days = millis.div_euclid(MILLIS_PER_DAY);
    let tod = millis.rem_euclid(MILLIS_PER_DAY);
    format!("{}T{}", format_date(days as i32), format_time(tod as i32))
}

/// Format (months, millis) as an ISO-8601 duration string.
pub fn format_duration(months: i32, millis: i64) -> String {
    if months == 0 && millis == 0 {
        return "PT0S".to_string();
    }
    let neg = months < 0 || millis < 0;
    let months = months.unsigned_abs();
    let millis = millis.unsigned_abs();
    let mut out = String::new();
    if neg {
        out.push('-');
    }
    out.push('P');
    let y = months / 12;
    let mo = months % 12;
    if y > 0 {
        out.push_str(&format!("{y}Y"));
    }
    if mo > 0 {
        out.push_str(&format!("{mo}M"));
    }
    let d = millis / MILLIS_PER_DAY as u64;
    let rem = millis % MILLIS_PER_DAY as u64;
    if d > 0 {
        out.push_str(&format!("{d}D"));
    }
    if rem > 0 {
        out.push('T');
        let h = rem / MILLIS_PER_HOUR as u64;
        let mi = (rem % MILLIS_PER_HOUR as u64) / MILLIS_PER_MINUTE as u64;
        let s = (rem % MILLIS_PER_MINUTE as u64) / MILLIS_PER_SECOND as u64;
        let ms = rem % MILLIS_PER_SECOND as u64;
        if h > 0 {
            out.push_str(&format!("{h}H"));
        }
        if mi > 0 {
            out.push_str(&format!("{mi}M"));
        }
        if s > 0 || ms > 0 {
            if ms > 0 {
                out.push_str(&format!("{s}.{ms:03}S"));
            } else {
                out.push_str(&format!("{s}S"));
            }
        }
    }
    out
}

/// Add a duration to a datetime, handling the month part via civil-date
/// arithmetic (`subtract-datetime`-style functions in Table 1 build on this).
pub fn datetime_add_duration(millis: i64, dur: &DurationValue) -> i64 {
    let mut result = millis;
    if dur.months != 0 {
        let days = result.div_euclid(MILLIS_PER_DAY);
        let tod = result.rem_euclid(MILLIS_PER_DAY);
        let (y, m, d) = civil_from_days(days);
        let total_months = (y as i64) * 12 + (m as i64 - 1) + dur.months as i64;
        let ny = total_months.div_euclid(12) as i32;
        let nm = (total_months.rem_euclid(12) + 1) as u32;
        let nd = d.min(days_in_month(ny, nm));
        result = days_from_civil(ny, nm, nd) * MILLIS_PER_DAY + tod;
    }
    result + dur.millis
}

/// Add a duration to a date (epoch days); time parts truncate to whole days.
pub fn date_add_duration(days: i32, dur: &DurationValue) -> i32 {
    let dt = (days as i64) * MILLIS_PER_DAY;
    let r = datetime_add_duration(dt, dur);
    r.div_euclid(MILLIS_PER_DAY) as i32
}

/// `interval-bin(v, anchor, bin)`: the interval containing `v` in the
/// partitioning of the time line into `bin`-sized chunks anchored at
/// `anchor`. Used for the temporal binning / windowed aggregation the
/// behavioral-analysis pilot asked for (Section 5.2).
pub fn interval_bin(
    value: i64,
    kind: IntervalKind,
    anchor: i64,
    bin: &DurationValue,
) -> Result<IntervalValue> {
    if bin.months != 0 && bin.millis != 0 {
        return Err(AdmError::InvalidArgument(
            "interval-bin requires a pure year-month or pure day-time duration".into(),
        ));
    }
    if bin.months != 0 {
        // Bin by months on the civil calendar.
        let day_scale = match kind {
            IntervalKind::Date => 1,
            IntervalKind::DateTime => MILLIS_PER_DAY,
            IntervalKind::Time => {
                return Err(AdmError::InvalidArgument(
                    "cannot bin a time value by a year-month duration".into(),
                ))
            }
        };
        let (vdays, adays) = if kind == IntervalKind::Date {
            (value, anchor)
        } else {
            (value.div_euclid(MILLIS_PER_DAY), anchor.div_euclid(MILLIS_PER_DAY))
        };
        let (vy, vm, _) = civil_from_days(vdays);
        let (ay, am, _) = civil_from_days(adays);
        let vmonths = (vy as i64) * 12 + vm as i64 - 1;
        let amonths = (ay as i64) * 12 + am as i64 - 1;
        let bin_months = bin.months as i64;
        let idx = (vmonths - amonths).div_euclid(bin_months);
        let start_months = amonths + idx * bin_months;
        let end_months = start_months + bin_months;
        let to_point = |months: i64| -> i64 {
            let y = months.div_euclid(12) as i32;
            let m = (months.rem_euclid(12) + 1) as u32;
            days_from_civil(y, m, 1) * day_scale
        };
        Ok(IntervalValue { kind, start: to_point(start_months), end: to_point(end_months) })
    } else {
        if bin.millis == 0 {
            return Err(AdmError::InvalidArgument("interval-bin with zero-length bin".into()));
        }
        let scale = match kind {
            IntervalKind::Date => {
                if bin.millis % MILLIS_PER_DAY != 0 {
                    return Err(AdmError::InvalidArgument(
                        "date values can only be binned by whole days".into(),
                    ));
                }
                bin.millis / MILLIS_PER_DAY
            }
            _ => bin.millis,
        };
        let idx = (value - anchor).div_euclid(scale);
        Ok(IntervalValue { kind, start: anchor + idx * scale, end: anchor + (idx + 1) * scale })
    }
}

/// Allen's thirteen interval relations (Table 1 lists them as builtins).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllenRelation {
    Before,
    After,
    Meets,
    MetBy,
    Overlaps,
    OverlappedBy,
    Starts,
    StartedBy,
    During,
    Covers,
    Finishes,
    FinishedBy,
    Equals,
}

/// Compute which Allen relation holds between intervals `a` and `b`.
pub fn allen_relation(a: &IntervalValue, b: &IntervalValue) -> AllenRelation {
    use std::cmp::Ordering::*;
    use AllenRelation::*;
    match (a.start.cmp(&b.start), a.end.cmp(&b.end)) {
        (Equal, Equal) => Equals,
        (Equal, Less) => Starts,
        (Equal, Greater) => StartedBy,
        (Greater, Equal) => Finishes,
        (Less, Equal) => FinishedBy,
        (Less, Less) => {
            if a.end < b.start {
                Before
            } else if a.end == b.start {
                Meets
            } else {
                Overlaps
            }
        }
        (Greater, Greater) => {
            if a.start > b.end {
                After
            } else if a.start == b.end {
                MetBy
            } else {
                OverlappedBy
            }
        }
        (Less, Greater) => Covers,
        (Greater, Less) => During,
    }
}

/// Check a specific Allen relation by name (`interval-before(a, b)` etc.).
pub fn check_allen(name: &str, a: &IntervalValue, b: &IntervalValue) -> Result<bool> {
    use AllenRelation::*;
    let rel = allen_relation(a, b);
    let want = match name {
        "interval-before" => Before,
        "interval-after" => After,
        "interval-meets" => Meets,
        "interval-met-by" => MetBy,
        "interval-overlaps" => Overlaps,
        "interval-overlapped-by" => OverlappedBy,
        "interval-starts" => Starts,
        "interval-started-by" => StartedBy,
        "interval-during" => During,
        "interval-covers" => Covers,
        "interval-finishes" => Finishes,
        "interval-finished-by" => FinishedBy,
        "interval-equals" => Equals,
        _ => return Err(AdmError::UnknownFunction(name.to_string())),
    };
    Ok(rel == want)
}

/// `adjust-datetime-for-timezone(dt, "+05:30")` — shift and reformat.
pub fn adjust_for_timezone(millis: i64, tz: &str) -> Result<i64> {
    let (sign, rest) = match tz.chars().next() {
        Some('+') => (1i64, &tz[1..]),
        Some('-') => (-1i64, &tz[1..]),
        _ => return Err(AdmError::Parse(format!("invalid timezone {tz:?}"))),
    };
    let digits: String = rest.chars().filter(|c| c.is_ascii_digit()).collect();
    if digits.len() < 4 {
        return Err(AdmError::Parse(format!("invalid timezone {tz:?}")));
    }
    let h: i64 = digits[..2].parse().unwrap();
    let m: i64 = digits[2..4].parse().unwrap();
    Ok(millis + sign * (h * MILLIS_PER_HOUR + m * MILLIS_PER_MINUTE))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_roundtrip() {
        for &(y, m, d) in &[(1970, 1, 1), (2000, 2, 29), (2014, 7, 2), (1969, 12, 31), (1, 1, 1)] {
            let days = days_from_civil(y, m, d);
            assert_eq!(civil_from_days(days), (y, m, d));
        }
        assert_eq!(days_from_civil(1970, 1, 1), 0);
        assert_eq!(days_from_civil(1970, 1, 2), 1);
        assert_eq!(days_from_civil(1969, 12, 31), -1);
    }

    #[test]
    fn parse_and_format_date() {
        let d = parse_date("2012-06-05").unwrap();
        assert_eq!(format_date(d), "2012-06-05");
        assert!(parse_date("2012-13-01").is_err());
        assert!(parse_date("2011-02-29").is_err());
        assert!(parse_date("2012-02-29").is_ok());
    }

    #[test]
    fn parse_and_format_datetime() {
        let t = parse_datetime("2010-07-22T00:00:00").unwrap();
        assert_eq!(format_datetime(t), "2010-07-22T00:00:00");
        let t2 = parse_datetime("2013-12-22T12:13:32-0800").unwrap();
        // -08:00 means 20:13:32 UTC.
        assert_eq!(format_datetime(t2), "2013-12-22T20:13:32");
        let t3 = parse_datetime("2013-12-22T12:13:32.500Z").unwrap();
        assert_eq!(format_datetime(t3), "2013-12-22T12:13:32.500");
    }

    #[test]
    fn parse_time_variants() {
        assert_eq!(parse_time("00:00:00").unwrap(), 0);
        assert_eq!(
            parse_time("01:02:03").unwrap() as i64,
            MILLIS_PER_HOUR + 2 * MILLIS_PER_MINUTE + 3 * MILLIS_PER_SECOND
        );
        assert!(parse_time("25:00:00").is_err());
    }

    #[test]
    fn duration_roundtrip() {
        let (m, ms) = parse_duration("P30D").unwrap();
        assert_eq!((m, ms), (0, 30 * MILLIS_PER_DAY));
        let (m, ms) = parse_duration("P1Y2M3DT4H5M6.007S").unwrap();
        assert_eq!(m, 14);
        assert_eq!(ms, 3 * MILLIS_PER_DAY + 4 * MILLIS_PER_HOUR + 5 * MILLIS_PER_MINUTE + 6007);
        assert_eq!(format_duration(14, ms), "P1Y2M3DT4H5M6.007S");
        let (m, ms) = parse_duration("-P1M").unwrap();
        assert_eq!((m, ms), (-1, 0));
    }

    #[test]
    fn month_arithmetic_clamps_day() {
        // Jan 31 + 1 month = Feb 28 (non-leap).
        let jan31 = days_from_civil(2013, 1, 31) * MILLIS_PER_DAY;
        let r = datetime_add_duration(jan31, &DurationValue { months: 1, millis: 0 });
        assert_eq!(format_datetime(r), "2013-02-28T00:00:00");
    }

    #[test]
    fn interval_bin_daytime() {
        // Bin datetimes into 1-hour buckets anchored at epoch.
        let v = parse_datetime("2014-01-01T10:30:00").unwrap();
        let b = interval_bin(
            v,
            IntervalKind::DateTime,
            0,
            &DurationValue { months: 0, millis: MILLIS_PER_HOUR },
        )
        .unwrap();
        assert_eq!(format_datetime(b.start), "2014-01-01T10:00:00");
        assert_eq!(format_datetime(b.end), "2014-01-01T11:00:00");
    }

    #[test]
    fn interval_bin_yearmonth() {
        let v = parse_datetime("2014-05-15T10:30:00").unwrap();
        let b = interval_bin(v, IntervalKind::DateTime, 0, &DurationValue { months: 3, millis: 0 })
            .unwrap();
        assert_eq!(format_datetime(b.start), "2014-04-01T00:00:00");
        assert_eq!(format_datetime(b.end), "2014-07-01T00:00:00");
    }

    #[test]
    fn allen_relations() {
        let iv = |s, e| IntervalValue { kind: IntervalKind::DateTime, start: s, end: e };
        assert_eq!(allen_relation(&iv(0, 5), &iv(10, 20)), AllenRelation::Before);
        assert_eq!(allen_relation(&iv(0, 10), &iv(10, 20)), AllenRelation::Meets);
        assert_eq!(allen_relation(&iv(0, 15), &iv(10, 20)), AllenRelation::Overlaps);
        assert_eq!(allen_relation(&iv(10, 15), &iv(10, 20)), AllenRelation::Starts);
        assert_eq!(allen_relation(&iv(12, 15), &iv(10, 20)), AllenRelation::During);
        assert_eq!(allen_relation(&iv(12, 20), &iv(10, 20)), AllenRelation::Finishes);
        assert_eq!(allen_relation(&iv(10, 20), &iv(10, 20)), AllenRelation::Equals);
        assert_eq!(allen_relation(&iv(5, 25), &iv(10, 20)), AllenRelation::Covers);
        assert_eq!(allen_relation(&iv(25, 30), &iv(10, 20)), AllenRelation::After);
        assert_eq!(allen_relation(&iv(20, 30), &iv(10, 20)), AllenRelation::MetBy);
        assert_eq!(allen_relation(&iv(15, 30), &iv(10, 20)), AllenRelation::OverlappedBy);
        assert_eq!(allen_relation(&iv(10, 30), &iv(10, 20)), AllenRelation::StartedBy);
        assert_eq!(allen_relation(&iv(5, 20), &iv(10, 20)), AllenRelation::FinishedBy);
        assert!(check_allen("interval-before", &iv(0, 5), &iv(10, 20)).unwrap());
        assert!(!check_allen("interval-after", &iv(0, 5), &iv(10, 20)).unwrap());
    }

    #[test]
    fn timezone_adjust() {
        let t = parse_datetime("2014-01-01T00:00:00").unwrap();
        let adj = adjust_for_timezone(t, "+05:30").unwrap();
        assert_eq!(format_datetime(adj), "2014-01-01T05:30:00");
    }
}
