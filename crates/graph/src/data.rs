//! The vertex and edge attribute schema.
//!
//! These are the private columns the Figure 2 queries reference:
//! `self.inf`, `self.tInf`, `self.age`, `dest.inf`, `dest.tInf`,
//! `dest.age`, `edge.duration`, `edge.contacts`, `edge.last_contact`,
//! `edge.setting`, `edge.location`. In the real system each vertex's data
//! lives only on its owner's device; here they are plain structs that the
//! device simulation hands to each simulated participant.

/// The type of relationship an edge represents (`edge.setting`, used by Q7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Setting {
    /// Household / family contact.
    Family,
    /// Social contact (friends, leisure).
    Social,
    /// Workplace or school contact.
    Work,
}

impl Setting {
    /// All settings, in the group order used by `GROUP BY edge.setting`.
    pub const ALL: [Setting; 3] = [Setting::Family, Setting::Social, Setting::Work];

    /// Group index for `GROUP BY` packing.
    pub fn index(self) -> usize {
        match self {
            Setting::Family => 0,
            Setting::Social => 1,
            Setting::Work => 2,
        }
    }
}

/// Where the contact happened (`edge.location`, used by Q4 and Q8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Location {
    /// Inside a shared household.
    Household,
    /// On the subway (`onSubway(edge.location)` in Q4).
    Subway,
    /// Anywhere else.
    Other,
}

/// Private per-vertex data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VertexData {
    /// `self.inf` — whether this participant has been diagnosed.
    pub infected: bool,
    /// `self.tInf` — day of diagnosis (valid only when `infected`).
    pub t_inf: u16,
    /// `self.age` in years.
    pub age: u8,
    /// Household identifier (not queried directly; used by generators).
    pub household: u32,
}

impl VertexData {
    /// A healthy participant.
    pub fn healthy(age: u8, household: u32) -> Self {
        Self {
            infected: false,
            t_inf: 0,
            age,
            household,
        }
    }

    /// The age group for `GROUP BY self.age` (decade buckets, ten groups).
    pub fn age_group(&self) -> usize {
        (self.age as usize / 10).min(9)
    }
}

/// Private per-edge data (symmetric on both directions of a contact).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeData {
    /// `edge.duration` — cumulative proximity time in minutes.
    pub duration: u32,
    /// `edge.contacts` — number of distinct contact events.
    pub contacts: u32,
    /// `edge.last_contact` — day of the most recent contact.
    pub last_contact: u16,
    /// `edge.setting` — relationship type.
    pub setting: Setting,
    /// `edge.location` — where the contact happened.
    pub location: Location,
}

impl EdgeData {
    /// A default household contact.
    pub fn household_contact(day: u16) -> Self {
        Self {
            duration: 600,
            contacts: 30,
            last_contact: day,
            setting: Setting::Family,
            location: Location::Household,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn age_groups() {
        assert_eq!(VertexData::healthy(0, 0).age_group(), 0);
        assert_eq!(VertexData::healthy(9, 0).age_group(), 0);
        assert_eq!(VertexData::healthy(10, 0).age_group(), 1);
        assert_eq!(VertexData::healthy(25, 0).age_group(), 2);
        assert_eq!(VertexData::healthy(99, 0).age_group(), 9);
        assert_eq!(VertexData::healthy(120, 0).age_group(), 9);
    }

    #[test]
    fn setting_indices_cover_all() {
        for (i, s) in Setting::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
    }

    #[test]
    fn healthy_default() {
        let v = VertexData::healthy(30, 7);
        assert!(!v.infected);
        assert_eq!(v.household, 7);
    }
}
