//! The derive-based writer this PR replaces, kept for one commit as the
//! reference of the differential test in `canon.rs`.

use serde::ser::{
    SerializeMap, SerializeSeq, SerializeStruct, SerializeStructVariant, SerializeTuple,
    SerializeTupleStruct, SerializeTupleVariant,
};
use serde::{Serialize, Serializer};
use std::fmt::Write as _;

/// Serializes any [`serde::Serialize`] value into the canonical,
/// machine-independent text form the cache is keyed on.
///
/// Properties the store relies on:
///
/// * **deterministic & cross-machine stable** — no pointers, no hash
///   iteration order (the workspace's derived types are structs, enums,
///   tuples, and `Vec`s);
/// * **bit-exact floats** — `f64`/`f32` are emitted as the hex of their
///   IEEE bit patterns (`x3ff0000000000000`), so `-0.0`, `NaN` payloads,
///   and every last ULP survive the round trip;
/// * **whitespace-free** — records embed these strings in
///   space-separated lines; the string escape maps ` ` to `\s`.
#[must_use]
pub fn canon_string<T: Serialize + ?Sized>(value: &T) -> String {
    let mut canon = Canon { out: String::new() };
    value
        .serialize(&mut canon)
        .expect("canonical serialization is infallible");
    canon.out
}

/// Error type for [`Canon`] — required by the serde traits, never
/// actually produced.
#[derive(Debug)]
struct CanonError(String);

impl std::fmt::Display for CanonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "canonical serialization error: {}", self.0)
    }
}

impl std::error::Error for CanonError {}

impl serde::ser::Error for CanonError {
    fn custom<T: std::fmt::Display>(msg: T) -> Self {
        Self(msg.to_string())
    }
}

struct Canon {
    out: String,
}

impl Canon {
    fn push_escaped(&mut self, s: &str) {
        self.out.push('"');
        for c in s.chars() {
            match c {
                '\\' => self.out.push_str("\\\\"),
                '"' => self.out.push_str("\\\""),
                ' ' => self.out.push_str("\\s"),
                '\n' => self.out.push_str("\\n"),
                '\r' => self.out.push_str("\\r"),
                '\t' => self.out.push_str("\\t"),
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }
}

/// Compound-serializer helper: writes separators between elements.
struct Compound<'a> {
    canon: &'a mut Canon,
    first: bool,
    close: &'static str,
}

impl Compound<'_> {
    fn sep(&mut self) {
        if self.first {
            self.first = false;
        } else {
            self.canon.out.push(',');
        }
    }

    fn value<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), CanonError> {
        self.sep();
        value.serialize(&mut *self.canon)
    }

    fn field<T: Serialize + ?Sized>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<(), CanonError> {
        self.sep();
        self.canon.out.push_str(key);
        self.canon.out.push(':');
        value.serialize(&mut *self.canon)
    }

    fn finish(self) {
        self.canon.out.push_str(self.close);
    }
}

impl SerializeSeq for Compound<'_> {
    type Ok = ();
    type Error = CanonError;
    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), CanonError> {
        self.value(value)
    }
    fn end(self) -> Result<(), CanonError> {
        self.finish();
        Ok(())
    }
}

impl SerializeTuple for Compound<'_> {
    type Ok = ();
    type Error = CanonError;
    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), CanonError> {
        self.value(value)
    }
    fn end(self) -> Result<(), CanonError> {
        self.finish();
        Ok(())
    }
}

impl SerializeTupleStruct for Compound<'_> {
    type Ok = ();
    type Error = CanonError;
    fn serialize_field<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), CanonError> {
        self.value(value)
    }
    fn end(self) -> Result<(), CanonError> {
        self.finish();
        Ok(())
    }
}

impl SerializeTupleVariant for Compound<'_> {
    type Ok = ();
    type Error = CanonError;
    fn serialize_field<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), CanonError> {
        self.value(value)
    }
    fn end(self) -> Result<(), CanonError> {
        self.finish();
        Ok(())
    }
}

impl SerializeMap for Compound<'_> {
    type Ok = ();
    type Error = CanonError;
    fn serialize_key<T: Serialize + ?Sized>(&mut self, key: &T) -> Result<(), CanonError> {
        self.sep();
        key.serialize(&mut *self.canon)?;
        self.canon.out.push_str("=>");
        Ok(())
    }
    fn serialize_value<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), CanonError> {
        value.serialize(&mut *self.canon)
    }
    fn end(self) -> Result<(), CanonError> {
        self.finish();
        Ok(())
    }
}

impl SerializeStruct for Compound<'_> {
    type Ok = ();
    type Error = CanonError;
    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<(), CanonError> {
        self.field(key, value)
    }
    fn end(self) -> Result<(), CanonError> {
        self.finish();
        Ok(())
    }
}

impl SerializeStructVariant for Compound<'_> {
    type Ok = ();
    type Error = CanonError;
    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<(), CanonError> {
        self.field(key, value)
    }
    fn end(self) -> Result<(), CanonError> {
        self.finish();
        Ok(())
    }
}

impl<'a> Serializer for &'a mut Canon {
    type Ok = ();
    type Error = CanonError;
    type SerializeSeq = Compound<'a>;
    type SerializeTuple = Compound<'a>;
    type SerializeTupleStruct = Compound<'a>;
    type SerializeTupleVariant = Compound<'a>;
    type SerializeMap = Compound<'a>;
    type SerializeStruct = Compound<'a>;
    type SerializeStructVariant = Compound<'a>;

    fn serialize_bool(self, v: bool) -> Result<(), CanonError> {
        self.out.push(if v { 'T' } else { 'F' });
        Ok(())
    }
    fn serialize_i8(self, v: i8) -> Result<(), CanonError> {
        self.serialize_i64(i64::from(v))
    }
    fn serialize_i16(self, v: i16) -> Result<(), CanonError> {
        self.serialize_i64(i64::from(v))
    }
    fn serialize_i32(self, v: i32) -> Result<(), CanonError> {
        self.serialize_i64(i64::from(v))
    }
    fn serialize_i64(self, v: i64) -> Result<(), CanonError> {
        write!(self.out, "{v}").expect("write to String");
        Ok(())
    }
    fn serialize_u8(self, v: u8) -> Result<(), CanonError> {
        self.serialize_u64(u64::from(v))
    }
    fn serialize_u16(self, v: u16) -> Result<(), CanonError> {
        self.serialize_u64(u64::from(v))
    }
    fn serialize_u32(self, v: u32) -> Result<(), CanonError> {
        self.serialize_u64(u64::from(v))
    }
    fn serialize_u64(self, v: u64) -> Result<(), CanonError> {
        write!(self.out, "{v}").expect("write to String");
        Ok(())
    }
    fn serialize_f32(self, v: f32) -> Result<(), CanonError> {
        write!(self.out, "y{:08x}", v.to_bits()).expect("write to String");
        Ok(())
    }
    fn serialize_f64(self, v: f64) -> Result<(), CanonError> {
        write!(self.out, "x{:016x}", v.to_bits()).expect("write to String");
        Ok(())
    }
    fn serialize_char(self, v: char) -> Result<(), CanonError> {
        self.push_escaped(&v.to_string());
        Ok(())
    }
    fn serialize_str(self, v: &str) -> Result<(), CanonError> {
        self.push_escaped(v);
        Ok(())
    }
    fn serialize_bytes(self, v: &[u8]) -> Result<(), CanonError> {
        self.out.push('b');
        for byte in v {
            write!(self.out, "{byte:02x}").expect("write to String");
        }
        Ok(())
    }
    fn serialize_none(self) -> Result<(), CanonError> {
        self.out.push('~');
        Ok(())
    }
    fn serialize_some<T: Serialize + ?Sized>(self, value: &T) -> Result<(), CanonError> {
        self.out.push('+');
        value.serialize(self)
    }
    fn serialize_unit(self) -> Result<(), CanonError> {
        self.out.push_str("()");
        Ok(())
    }
    fn serialize_unit_struct(self, name: &'static str) -> Result<(), CanonError> {
        self.out.push_str(name);
        Ok(())
    }
    fn serialize_unit_variant(
        self,
        name: &'static str,
        _variant_index: u32,
        variant: &'static str,
    ) -> Result<(), CanonError> {
        self.out.push_str(name);
        self.out.push_str("::");
        self.out.push_str(variant);
        Ok(())
    }
    fn serialize_newtype_struct<T: Serialize + ?Sized>(
        self,
        name: &'static str,
        value: &T,
    ) -> Result<(), CanonError> {
        self.out.push_str(name);
        self.out.push('(');
        value.serialize(&mut *self)?;
        self.out.push(')');
        Ok(())
    }
    fn serialize_newtype_variant<T: Serialize + ?Sized>(
        self,
        name: &'static str,
        _variant_index: u32,
        variant: &'static str,
        value: &T,
    ) -> Result<(), CanonError> {
        self.out.push_str(name);
        self.out.push_str("::");
        self.out.push_str(variant);
        self.out.push('(');
        value.serialize(&mut *self)?;
        self.out.push(')');
        Ok(())
    }
    fn serialize_seq(self, _len: Option<usize>) -> Result<Compound<'a>, CanonError> {
        self.out.push('[');
        Ok(Compound {
            canon: self,
            first: true,
            close: "]",
        })
    }
    fn serialize_tuple(self, _len: usize) -> Result<Compound<'a>, CanonError> {
        self.out.push('(');
        Ok(Compound {
            canon: self,
            first: true,
            close: ")",
        })
    }
    fn serialize_tuple_struct(
        self,
        name: &'static str,
        _len: usize,
    ) -> Result<Compound<'a>, CanonError> {
        self.out.push_str(name);
        self.out.push('(');
        Ok(Compound {
            canon: self,
            first: true,
            close: ")",
        })
    }
    fn serialize_tuple_variant(
        self,
        name: &'static str,
        _variant_index: u32,
        variant: &'static str,
        _len: usize,
    ) -> Result<Compound<'a>, CanonError> {
        self.out.push_str(name);
        self.out.push_str("::");
        self.out.push_str(variant);
        self.out.push('(');
        Ok(Compound {
            canon: self,
            first: true,
            close: ")",
        })
    }
    fn serialize_map(self, _len: Option<usize>) -> Result<Compound<'a>, CanonError> {
        self.out.push('{');
        Ok(Compound {
            canon: self,
            first: true,
            close: "}",
        })
    }
    fn serialize_struct(self, name: &'static str, _len: usize) -> Result<Compound<'a>, CanonError> {
        self.out.push_str(name);
        self.out.push('{');
        Ok(Compound {
            canon: self,
            first: true,
            close: "}",
        })
    }
    fn serialize_struct_variant(
        self,
        name: &'static str,
        _variant_index: u32,
        variant: &'static str,
        _len: usize,
    ) -> Result<Compound<'a>, CanonError> {
        self.out.push_str(name);
        self.out.push_str("::");
        self.out.push_str(variant);
        self.out.push('{');
        Ok(Compound {
            canon: self,
            first: true,
            close: "}",
        })
    }
}
