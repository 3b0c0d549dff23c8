//! Wire types of the serve protocol: request field access over the
//! shared [`dk_json`] parser and response emission over
//! [`dk_metrics::json`].
//!
//! One request is one JSON object on one line; one response is one JSON
//! object on one line. The full op catalogue lives in the crate-level
//! docs ([`crate`]). This module holds the pieces both the server and
//! the tests need: the size cap, the structured error shape, the typed
//! field accessors, and the **tagged** metric-value encoding that
//! distinguishes `Undefined` from non-finite floats (both of which the
//! report JSON collapses to `null` — a serve client must be able to
//! tell them apart without re-deriving the metric).

use dk_json::JsonValue;
use dk_metrics::json;
use dk_metrics::MetricValue;

/// Hard cap on one request line, in bytes (1 MiB). Longer lines get an
/// `oversized` error and the connection is closed — the daemon never
/// buffers unbounded client input.
pub const MAX_REQUEST_BYTES: usize = 1 << 20;

/// A structured protocol error: machine-readable `code`, human-readable
/// `message`. Serialized as `{"ok":false,"error":{"code":…,"message":…}}`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReqError {
    /// Stable machine-readable code (see [`crate`] docs for the list).
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl ReqError {
    /// Builds an error with the given code and message.
    pub fn new(code: &'static str, message: impl Into<String>) -> Self {
        ReqError {
            code,
            message: message.into(),
        }
    }

    /// The response line (without trailing newline).
    pub fn to_response(&self) -> String {
        json::object([
            ("ok".into(), "false".into()),
            (
                "error".into(),
                json::object([
                    ("code".into(), quoted(self.code)),
                    ("message".into(), quoted(&self.message)),
                ]),
            ),
        ])
    }
}

/// Serializes `s` as a JSON string.
pub fn quoted(s: &str) -> String {
    format!("\"{}\"", json::escape(s))
}

/// Tagged wire encoding of a [`MetricValue`] (serve responses only; the
/// report JSON written by `dk metrics` keeps its historical untagged
/// shape):
///
/// * finite scalar — `{"status":"ok","value":N}`
/// * non-finite scalar — `{"status":"not_finite","repr":"nan"|"inf"|"-inf"}`
/// * undefined — `{"status":"undefined"}`
/// * series — `{"status":"ok","series":[[x,y],…]}` (non-finite `y`
///   entries keep the report convention and render as `null`)
pub fn tagged_value(value: &MetricValue) -> String {
    match value {
        MetricValue::Scalar(x) if x.is_finite() => json::object([
            ("status".into(), quoted("ok")),
            ("value".into(), json::number(*x)),
        ]),
        MetricValue::Scalar(x) => {
            let repr = if x.is_nan() {
                "nan"
            } else if *x > 0.0 {
                "inf"
            } else {
                "-inf"
            };
            json::object([
                ("status".into(), quoted("not_finite")),
                ("repr".into(), quoted(repr)),
            ])
        }
        MetricValue::Undefined => json::object([("status".into(), quoted("undefined"))]),
        MetricValue::Series(s) => json::object([
            ("status".into(), quoted("ok")),
            (
                "series".into(),
                json::array(
                    s.iter()
                        .map(|&(x, y)| json::array([x.to_string(), json::number(y)])),
                ),
            ),
        ]),
    }
}

/// Typed field access over a parsed request object. Every accessor
/// returns a [`ReqError`] with code `bad_request` (wrong shape /
/// missing required field) or `bad_knob` (present but out of range) so
/// the dispatch code stays linear.
pub struct Req<'a> {
    value: &'a JsonValue,
}

impl<'a> Req<'a> {
    /// Wraps a parsed request; errors unless it is a JSON object.
    pub fn new(value: &'a JsonValue) -> Result<Req<'a>, ReqError> {
        match value {
            JsonValue::Object(_) => Ok(Req { value }),
            other => Err(ReqError::new(
                "bad_request",
                format!("request must be a JSON object, got {}", other.type_name()),
            )),
        }
    }

    fn field(&self, key: &str) -> Option<&'a JsonValue> {
        self.value.get(key)
    }

    /// Required string field.
    pub fn str_field(&self, key: &str) -> Result<&'a str, ReqError> {
        match self.field(key) {
            Some(v) => v.as_str().ok_or_else(|| {
                ReqError::new(
                    "bad_request",
                    format!("field {key:?} must be a string, got {}", v.type_name()),
                )
            }),
            None => Err(ReqError::new(
                "bad_request",
                format!("missing required field {key:?}"),
            )),
        }
    }

    /// Optional string field.
    pub fn opt_str(&self, key: &str) -> Result<Option<&'a str>, ReqError> {
        self.field(key).map_or(Ok(None), |v| {
            v.as_str().map(Some).ok_or_else(|| {
                ReqError::new(
                    "bad_knob",
                    format!("knob {key:?} must be a string, got {}", v.type_name()),
                )
            })
        })
    }

    /// Optional non-negative integer knob (rejects fractions, negatives
    /// and anything beyond 2^53).
    pub fn opt_u64(&self, key: &str) -> Result<Option<u64>, ReqError> {
        self.field(key).map_or(Ok(None), |v| {
            v.as_u64().map(Some).ok_or_else(|| {
                ReqError::new(
                    "bad_knob",
                    format!("knob {key:?} must be a non-negative integer"),
                )
            })
        })
    }

    /// Optional positive integer knob: as [`Req::opt_u64`], and `0` is
    /// refused too.
    pub fn opt_positive_u64(&self, key: &str) -> Result<Option<u64>, ReqError> {
        match self.opt_u64(key)? {
            Some(0) => Err(ReqError::new(
                "bad_knob",
                format!("knob {key:?} must be a positive integer"),
            )),
            v => Ok(v),
        }
    }

    /// Optional boolean knob.
    pub fn opt_bool(&self, key: &str) -> Result<Option<bool>, ReqError> {
        self.field(key).map_or(Ok(None), |v| {
            v.as_bool().map(Some).ok_or_else(|| {
                ReqError::new(
                    "bad_knob",
                    format!("knob {key:?} must be true or false, got {}", v.type_name()),
                )
            })
        })
    }

    /// Optional array-of-numbers knob (the attack `checkpoints` list).
    pub fn opt_f64_array(&self, key: &str) -> Result<Option<Vec<f64>>, ReqError> {
        let Some(v) = self.field(key) else {
            return Ok(None);
        };
        let items = v.as_array().ok_or_else(|| {
            ReqError::new(
                "bad_knob",
                format!("knob {key:?} must be an array of numbers"),
            )
        })?;
        let mut out = Vec::with_capacity(items.len());
        for item in items {
            out.push(item.as_f64().ok_or_else(|| {
                ReqError::new(
                    "bad_knob",
                    format!("knob {key:?} must contain only numbers"),
                )
            })?);
        }
        Ok(Some(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tagged_encoding_distinguishes_null_cases() {
        assert_eq!(
            tagged_value(&MetricValue::Scalar(1.5)),
            r#"{"status":"ok","value":1.5}"#
        );
        assert_eq!(
            tagged_value(&MetricValue::Scalar(f64::NAN)),
            r#"{"status":"not_finite","repr":"nan"}"#
        );
        assert_eq!(
            tagged_value(&MetricValue::Scalar(f64::INFINITY)),
            r#"{"status":"not_finite","repr":"inf"}"#
        );
        assert_eq!(
            tagged_value(&MetricValue::Scalar(f64::NEG_INFINITY)),
            r#"{"status":"not_finite","repr":"-inf"}"#
        );
        assert_eq!(
            tagged_value(&MetricValue::Undefined),
            r#"{"status":"undefined"}"#
        );
        assert_eq!(
            tagged_value(&MetricValue::Series(vec![(1, 0.5), (2, f64::NAN)])),
            r#"{"status":"ok","series":[[1,0.5],[2,null]]}"#
        );
    }

    #[test]
    fn error_response_shape() {
        let resp = ReqError::new("unknown_op", "no such op \"zap\"").to_response();
        assert_eq!(
            resp,
            r#"{"ok":false,"error":{"code":"unknown_op","message":"no such op \"zap\""}}"#
        );
        // the error line itself round-trips through the shared parser
        let v = dk_json::JsonValue::parse(&resp).expect("valid JSON");
        assert_eq!(v.get("ok").and_then(|b| b.as_bool()), Some(false));
    }

    #[test]
    fn typed_accessors_reject_wrong_shapes() {
        let v = dk_json::JsonValue::parse(
            r#"{"op":"metric","n":3,"frac":[0.1,0.5],"flag":true,"bad":-1,"zero":0}"#,
        )
        .expect("valid");
        let req = Req::new(&v).expect("object");
        assert_eq!(req.str_field("op").expect("string"), "metric");
        assert_eq!(req.opt_u64("n").expect("u64"), Some(3));
        assert_eq!(req.opt_u64("missing").expect("absent ok"), None);
        assert_eq!(req.opt_bool("flag").expect("bool"), Some(true));
        assert_eq!(
            req.opt_f64_array("frac").expect("array"),
            Some(vec![0.1, 0.5])
        );
        assert_eq!(req.str_field("missing").unwrap_err().code, "bad_request");
        assert_eq!(req.opt_u64("bad").unwrap_err().code, "bad_knob");
        assert_eq!(req.opt_u64("zero").ok(), Some(Some(0)));
        assert_eq!(req.opt_positive_u64("n").ok(), Some(Some(3)));
        assert_eq!(req.opt_positive_u64("zero").unwrap_err().code, "bad_knob");
        assert_eq!(req.opt_bool("n").unwrap_err().code, "bad_knob");
        assert_eq!(req.opt_f64_array("flag").unwrap_err().code, "bad_knob");
        let arr = dk_json::JsonValue::parse("[1]").expect("valid");
        let err = Req::new(&arr).err().expect("non-object rejected");
        assert_eq!(err.code, "bad_request");
    }
}
